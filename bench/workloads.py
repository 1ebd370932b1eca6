"""Seeded inputs for the benchmark workloads.

Every workload is an endless sequence of cycles of ops.  Cycle ``k`` of a
workload is drawn from ``random.Random("<workload>/<seed>/<k>")``, so the same
seed always gives the same argv lists and family files.  A cycle has a fixed
composition (so many ops of each kind), which keeps the mix of a run the same
from seed to seed; only the parameters inside each kind are random.

The program under test sees only the argv of each op (and, for ``fv-eval``,
the family file it names).  Fields are irreducible by construction: they are
corpus fields, or polynomials that are Eisenstein at some prime.  Nothing
here imports ``adelic`` or sympy.

Each op carries ``ref``: what the checker in ``check.py`` needs to judge the
output without ``adelic``.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("spectrum", "split", "adele-iso", "fv-eval")

# A run executes whole cycles (10 ops, 20 for adele-iso) and at least
# TRACE_OPS ops; the traced passes and the stdout digest cover the first
# TRACE_OPS ops, a whole number of cycles.
TRACE_OPS = 100

# The built-in corpus of the library, degree >= 2 (copied so that the inputs
# do not change when the library's corpus does), without its entry
# "undetermined-at-2", x^4 - 4*x^2 + 36 = (x^2 - 4*x + 6)(x^2 + 4*x + 6),
# which is reducible and so defines no field.
CORPUS = (
    "x^2 - 2",
    "x^2 - 3",
    "x^2 + 1",
    "x^2 - 5",
    "x^2 + x + 1",
    "x^2 - x - 1",
    "x^3 - x - 1",
    "x^3 - 2",
    "x^3 + x + 1",
    "x^3 - 3*x - 1",
    "x^3 + x^2 - 2*x + 8",
    "x^4 - 2",
    "x^4 + 1",
    "x^4 - 10*x^2 + 1",
    "x^4 - x - 1",
    "x^5 - 2",
    "x^5 + x^4 - 4*x^3 - 3*x^2 + 3*x + 1",
    "x^6 - 2",
    "x^6 + x^3 + 1",
    "x^7 - 7*x + 3",
    "x^7 + 14*x^4 - 42*x^2 - 21*x + 9",
    "x^7 - 2",
    "x^8 - 2",
    "x^8 + 1",
)
DEG7_A = "x^7 - 7*x + 3"
DEG7_B = "x^7 + 14*x^4 - 42*x^2 - 21*x + 9"

SMALL_PRIMES = (2, 3, 5, 7)


class Op:
    """One CLI invocation: argv, the exit code it must give, and checker data."""

    __slots__ = ("argv", "expect_code", "ref")

    def __init__(self, argv, expect_code, ref):
        self.argv = argv
        self.expect_code = expect_code
        self.ref = ref


# ---------------------------------------------------------------------------
# Integer polynomials as coefficient lists, constant term first.


def parse_poly(text: str) -> list[int]:
    """Coefficients of a polynomial written as the generator writes them."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "x" not in term:
            c, k = int(term), 0
        else:
            head, _, power = term.partition("x")
            c = int(head.rstrip("*")) if head else 1
            k = int(power[1:]) if power else 1
        coeffs[k] = coeffs.get(k, 0) + sign * c
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def poly_text(c: list[int]) -> str:
    parts = []
    for k in range(len(c) - 1, -1, -1):
        a = c[k]
        if a == 0:
            continue
        mag = abs(a)
        if k == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else f"{mag}*") + ("x" if k == 1 else f"x^{k}")
        if not parts:
            parts.append(body if a > 0 else "-" + body)
        else:
            parts.append(("+ " if a > 0 else "- ") + body)
    return " ".join(parts)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_shift(c: list[int], t: int) -> list[int]:
    """Coefficients of f(x + t)."""
    out = [c[-1]]
    for a in reversed(c[:-1]):
        out = poly_mul(out, [t, 1])
        out[0] += a
    return out


def _det(m: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def discriminant(c: list[int]) -> int:
    """Discriminant of a monic polynomial via the Sylvester matrix of f, f'."""
    n = len(c) - 1
    d = [i * c[i] for i in range(1, n + 1)]
    f_hi, d_hi = c[::-1], d[::-1]
    size = 2 * n - 1
    rows = []
    for i in range(n - 1):
        rows.append([0] * i + f_hi + [0] * (size - i - len(f_hi)))
    for i in range(n):
        rows.append([0] * i + d_hi + [0] * (size - i - len(d_hi)))
    res = _det(rows)
    return (-1) ** (n * (n - 1) // 2) * res


def valuation(n: int, p: int) -> int:
    n, v = abs(n), 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in witnesses:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if is_prime(q)]


def keating_level(p: int, e: int) -> int:
    """Truncation level the adele-iso verdict uses for a totally ramified prime:
    2 when e = 1, else the least integer above p/(p-1) + v_p(e)*e."""
    if e == 1:
        return 2
    bound = Fraction(p, p - 1) + valuation(e, p) * e
    return int(bound) + 1


def eisenstein_poly(rng: random.Random, n: int, q: int, const_range=(1, 5)) -> list[int]:
    """Monic degree-n polynomial that is Eisenstein at q (so irreducible)."""
    lo, hi = const_range
    while True:
        u = rng.randint(lo, hi) * rng.choice((1, -1))
        if u % q:
            break
    c = [q * u] + [q * rng.randint(-3, 3) for _ in range(n - 1)] + [1]
    return c


def random_prime(rng: random.Random, lo_exp: float, hi_exp: float) -> int:
    n = int(10 ** rng.uniform(lo_exp, hi_exp))
    while not is_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# spectrum: many small good primes on the Kummer route.


def _spectrum_cycle(rng: random.Random) -> list[Op]:
    fields = []
    for n in range(2, 9):
        q = rng.choice(SMALL_PRIMES)
        fields.append((eisenstein_poly(rng, n, q), q))
    for lo, hi in ((2, 3), (4, 5), (6, 8)):
        text = rng.choice([t for t in CORPUS if lo <= len(parse_poly(t)) - 1 <= hi])
        fields.append((parse_poly(text), None))
    rng.shuffle(fields)
    ops = []
    for c, q in fields:
        bound = rng.randint(200, 400)
        argv = ["spectrum", poly_text(c), "--bound", str(bound), "--format", "json"]
        ops.append(Op(argv, 0, {"poly": c, "bound": bound, "eisenstein_prime": q}))
    return ops


# ---------------------------------------------------------------------------
# split: big good primes, Newton-route index divisors, big constant terms.


def _roots_mod(c: list[int], p: int) -> bool:
    return any(sum(a * pow(r, i, p) for i, a in enumerate(c)) % p == 0 for r in range(p))


def newton_field(rng: random.Random, undetermined: bool):
    """An index divisor p of f = phi^k + p^m * g whose one-level Newton
    analysis has a known outcome.

    phi is monic, irreducible mod p, with coefficients in [0, p) (the lift
    the library expands in), deg g < deg phi = r and p does not divide g,
    m >= 2 (so p divides the index).  The phi-adic polygon is one side of
    slope m/k whose residual polynomial y^d + c (d = gcd(m, k), c != 0) is
    separable iff p does not divide d.

    * gcd(m, k) = 1: f is irreducible over Q_p, hence over Q, and p has the
      single prime (e, f) = (k, r).
    * p | d: the result is Undetermined.  Here r = 1 and g = c is a constant
      with x^k + p^m c irreducible by Capelli's criterion (-c not a square
      for k = 2, not a cube for k = 3, c not a fourth power for k = 4).
    """
    if undetermined:
        p, k, m = rng.choice(((2, 2, 2), (2, 2, 4), (2, 4, 2), (3, 3, 3)))
        a = rng.randrange(p)
        while True:
            c = rng.randint(1, 60)
            root = round(c ** (1 / k))
            if c % p and all((root + t) ** k != c for t in (-1, 0, 1)):
                break
        f = poly_shift([c * p**m] + [0] * (k - 1) + [1], a)
        return f, p, k, 1
    p = rng.choice(SMALL_PRIMES)
    k = rng.choice((2, 3))
    m = rng.choice([m for m in (2, 3, 4, 5) if gcd(m, k) == 1])
    r = rng.choice((1, 2, 3))
    while True:
        phi = [rng.randrange(p) for _ in range(r)] + [1]
        if r == 1 or not _roots_mod(phi, p):
            break
    while True:
        g = [rng.randint(-p, p) for _ in range(r)]
        if any(a % p for a in g):
            break
    f = [1]
    for _ in range(k):
        f = poly_mul(f, phi)
    for i, a in enumerate(g):
        f[i] += p**m * a
    return f, p, k, r


def _split_cycle(rng: random.Random) -> list[Op]:
    ops = []
    bands = list(range(6))
    rng.shuffle(bands)
    for i, band in enumerate(bands):
        if i < 4:
            q = rng.choice(SMALL_PRIMES)
            c = eisenstein_poly(rng, (2, 4, 6, 8)[i], q)
        else:
            c = parse_poly(rng.choice(CORPUS))
        p = random_prime(rng, 6 + 2 * band, 8 + 2 * band)
        argv = ["split", poly_text(c), "--prime", str(p), "--format", "json"]
        ops.append(Op(argv, 0, {"poly": c, "prime": p, "kind": "good"}))
    for undetermined in (False, False, True):
        c, p, k, r = newton_field(rng, undetermined)
        argv = ["split", poly_text(c), "--prime", str(p), "--format", "json"]
        ref = {"poly": c, "prime": p, "kind": "newton", "factors": None if undetermined else [[k, r]]}
        ops.append(Op(argv, 3 if undetermined else 0, ref))
    q = rng.choice(SMALL_PRIMES)
    c = eisenstein_poly(rng, rng.randint(2, 4), q, (10**9 // q, 10**10 // q))
    p = random_prime(rng, 6, 18)
    argv = ["split", poly_text(c), "--prime", str(p), "--format", "json"]
    ops.append(Op(argv, 0, {"poly": c, "prime": p, "kind": "good"}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# adele-iso: presentation pairs, distinct pairs, and the degree-7 pair.

# A cycle has 13 distinct quadratic pairs, 6 presentation pairs and the
# degree-7 pair.  The distinct pairs are the cheapest 65% of the ops, with
# costs close together, so the median latency falls inside them; two pairs of
# order 121 and the degree-7 pair are the slowest 15%, so the 90th percentile
# falls inside that group.  A percentile at the edge between two groups, or
# inside a group of widely spread costs (distinct cubics and quartics, whose
# degree sweep depends on the least split prime), jumps from seed to seed.
DISTINCT_DEGREES = (2,) * 13
# (p, degree) of the presentation pairs; the residue ring the verdict
# compares at p has order p^keating_level(p, degree): 8 to 121.
PRESENTATION_SHAPES = ((2, 3), (3, 2), (5, 2), (7, 2), (11, 2), (11, 2))
MAX_OTHER_RING_ORDER = 32  # at a second ramified prime of a quadratic field
RING_ORDER_CAP = 2**20  # the library's default --ring-cap


def _presentation_ok(c: list[int], p: int, bound: int) -> bool:
    """The verdict on (f, f shifted) can neither be Undetermined nor hit a cap.

    Every prime q <= bound other than p must have v_q(disc) <= 1, so that q
    does not divide the index and takes the Kummer route (p does too: f is
    Eisenstein there); q is then ramified only in one factor (e, f) = (2, 1).
    For degree 2 that makes q totally ramified, and the verdict compares
    rings of order q^keating_level(q, 2), which must stay <=
    MAX_OTHER_RING_ORDER so that the ring at p sets the cost of the op.
    For degree n >= 3 the unramified factors have residue degree <= n - 2,
    and the verdict builds the ring O/q^2 of order q^(2f) for each of them
    and raises the ring-order cap (exit 4) above RING_ORDER_CAP; such fields
    stay out of the mix (a known defect of the unramified branch).
    """
    n = len(c) - 1
    disc = discriminant(c)
    for q in primes_up_to(bound):
        if q == p or disc % q:
            continue
        if valuation(disc, q) > 1:
            return False
        if n == 2 and q ** keating_level(q, 2) > MAX_OTHER_RING_ORDER:
            return False
        if n >= 3 and q ** (2 * (n - 2)) > RING_ORDER_CAP:
            return False
    return True


def _adele_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for p, n in PRESENTATION_SHAPES:
        bound = rng.randint(100, 200)
        while True:
            c = eisenstein_poly(rng, n, p)
            if _presentation_ok(c, p, bound):
                break
        t = rng.choice((1, -1, 2))
        d = poly_shift(c, t)
        argv = ["adele-iso", poly_text(c), poly_text(d), "--bound", str(bound), "--format", "json"]
        ref = {"kind": "presentation", "polys": (c, d), "bound": bound,
               "prime": p, "e": n, "truncation": keating_level(p, n)}
        ops.append(Op(argv, 0, ref))
    for n in DISTINCT_DEGREES:
        q1, q2 = rng.sample(SMALL_PRIMES, 2)
        a = eisenstein_poly(rng, n, q1)
        while True:
            b = eisenstein_poly(rng, n, q2)
            if discriminant(b) % q1:
                break
        bound = rng.randint(100, 200)
        argv = ["adele-iso", poly_text(a), poly_text(b), "--bound", str(bound), "--format", "json"]
        ops.append(Op(argv, 0, {"kind": "distinct", "polys": (a, b), "bound": bound}))
    bound = rng.randint(100, 200)
    argv = ["adele-iso", DEG7_A, DEG7_B, "--bound", str(bound), "--format", "json"]
    polys = (parse_poly(DEG7_A), parse_poly(DEG7_B))
    ops.append(Op(argv, 0, {"kind": "equivalent", "polys": polys, "bound": bound}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# fv-eval: generalized sentences over seeded families.

# Ring-side templates: (text, ring-quantifier depth, property of a stalk).
RING_TEMPLATES = (
    ("forall y (y = 0 or exists z (y * z = 1))", 2, "field"),
    ("forall y (y + y = 0)", 1, "char2"),
    ("forall y (y + y + y = 0)", 1, "char3"),
    ("forall y (y * y = 0 -> y = 0)", 1, "reduced"),
    ("exists y (y * y = y and not (y = 0) and not (y = 1))", 1, "idempotent"),
)

# Boolean-side templates over v0 = [[theta_0]], v1 = [[theta_1]]:
# (text, Boolean-quantifier depth, name of the set-level truth function).
BOOLE_TEMPLATES = (
    ("v0 = 1", 0, "s0_full"),
    ("v0 sub v1", 0, "s0_sub_s1"),
    ("(v0 = 0 or v1 = 1) and Fin(v0)", 0, "s0_empty_or_s1_full"),
    ("exists v7 (v7 sub v0 and not (v7 = 0) and not (v7 = v0))", 1, "s0_two"),
    ("forall v7 (v7 sub v0 -> v7 sub v1)", 1, "s0_sub_s1"),
    ("exists v7 (v7 sub v0 and v7 sub v1 and not (v7 = 0))", 1, "meet"),
    ("forall v7 (not (v7 = v0) or exists v8 (v8 sub v1 and v7 sub v8))", 2, "s0_sub_s1"),
    ("forall v7 (not (v7 = v1) or exists v8 (v8 sub v7 and not (v8 = v7) and not (v8 = 0)))", 2, "s1_two"),
    ("exists v7 (v7 = v1 and forall v8 (v8 sub v0 -> not (v8 = v7) or v8 = 0))", 2, "s1_not_in_s0"),
)

# (|I|, Boolean-quantifier depth) of the ops of one cycle.  Depth 1 over 10
# indices is the middle 60% of a cycle and depth 2 over 14 indices the
# slowest 20%, so the median and the 90th latency percentile fall inside
# those groups, not at the edge between two groups.
FV_SHAPES = ((6, 0), (8, 0)) + ((10, 1),) * 6 + ((14, 2),) * 2

# Rough cost in microseconds of the ring side of one op, so that fields of
# order near 256 under the depth-2 template do not dominate a run: an atom
# costs about 3 us in Z/m and 25 us in the other stalks, which decode and
# encode their elements.
FAMILY_WORK_BUDGET_US = 60000


def _factorize(m: int) -> dict[int, int]:
    out, q = {}, 2
    while q * q <= m:
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
        q += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def stalk_facts(spec: dict) -> dict:
    """Order and the template properties of a stalk, from its description."""
    kind = spec["kind"]
    if kind == "Zmod":
        m = spec["m"]
        fac = _factorize(m)
        order, char = m, m
        field = len(fac) == 1 and max(fac.values()) == 1
        reduced = max(fac.values()) == 1
        idempotent = len(fac) >= 2
    else:
        p, f = spec["p"], spec.get("f", 1)
        s = spec.get("s", 1)
        e = spec.get("e", 1)
        order = p ** (f * s)
        char = p ** (-(-s // e))
        field = reduced = s == 1
        idempotent = False
    return {
        "order": order,
        "field": field,
        "char2": char == 2,
        "char3": char == 3,
        "reduced": reduced,
        "idempotent": idempotent,
    }


def _random_stalk(rng: random.Random) -> dict:
    kind = rng.choice(("Zmod", "GF", "Unramified", "Eisenstein"))
    if kind == "Zmod":
        return {"kind": "Zmod", "m": rng.randint(2, 256)}
    while True:
        p = rng.choice((2, 3, 5, 7, 11, 13))
        if kind == "GF":
            spec = {"kind": "GF", "p": p, "f": rng.randint(1, 8)}
        elif kind == "Unramified":
            spec = {"kind": "Unramified", "p": p, "f": rng.randint(1, 3), "s": rng.randint(1, 5)}
        else:
            e = rng.randint(2, 4)
            spec = {"kind": "Eisenstein", "p": p, "e": e, "s": rng.randint(1, 6),
                    "coeffs": eisenstein_poly(rng, e, p), "f": rng.choice((1, 1, 2))}
        if stalk_facts(spec)["order"] <= 256:
            return spec


def _ring_work_us(spec: dict, facts: dict, thetas) -> int:
    """Atoms evaluated by the thetas on one stalk, times the cost of an atom.
    The depth-2 field template scans about q^2/2 pairs in a field of order q
    and stops at the first non-unit (near code p) otherwise."""
    q = facts["order"]
    small = min(_factorize(spec["m"])) if spec["kind"] == "Zmod" else spec["p"]
    atoms = 0
    for _, depth, _ in thetas:
        if depth == 1:
            atoms += q
        else:
            atoms += q * q // 2 if facts["field"] else q * small
    return atoms * (3 if spec["kind"] == "Zmod" else 25)


def _fv_cycle(rng: random.Random, workdir: str, tag: str) -> list[Op]:
    shapes = list(FV_SHAPES)
    rng.shuffle(shapes)
    ops = []
    for i, (size, boole_depth) in enumerate(shapes):
        boole, _, truth = BOOLE_TEMPLATES[3 * boole_depth + rng.randrange(3)]
        thetas = rng.sample(RING_TEMPLATES, 2)
        if i % 2 == 0 and all(t[1] == 1 for t in thetas):
            thetas[0] = RING_TEMPLATES[0]
        while True:
            stalks = [_random_stalk(rng) for _ in range(size)]
            facts = [stalk_facts(s) for s in stalks]
            work = sum(_ring_work_us(s, f, thetas) for s, f in zip(stalks, facts))
            if work <= FAMILY_WORK_BUDGET_US:
                break
        labels = [f"i{j}" for j in range(size)]
        doc = {"index": labels, "stalks": dict(zip(labels, stalks))}
        path = os.path.join(workdir, f"family-{tag}-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        sets = [frozenset(l for l, f in zip(labels, facts) if f[t[2]]) for t in thetas]
        expected = BOOLE_TRUTH[truth](sets[0], sets[1], frozenset(labels))
        argv = ["fv-eval", "--family", path, "--psi", boole,
                "--theta", thetas[0][0], "--theta", thetas[1][0], "--format", "json"]
        ops.append(Op(argv, 0, {"value": expected}))
    return ops


BOOLE_TRUTH = {
    "s0_full": lambda s0, s1, index: s0 == index,
    "s0_sub_s1": lambda s0, s1, index: s0 <= s1,
    "s0_empty_or_s1_full": lambda s0, s1, index: not s0 or s1 == index,
    "s0_two": lambda s0, s1, index: len(s0) >= 2,
    "meet": lambda s0, s1, index: bool(s0 & s1),
    "s1_two": lambda s0, s1, index: len(s1) >= 2,
    "s1_not_in_s0": lambda s0, s1, index: not s1 or not s1 <= s0,
}


def cycle(workload: str, seed: int, k: int, workdir: str) -> list[Op]:
    """Ops of cycle k of a workload; family files (fv-eval) go to workdir."""
    rng = random.Random(f"{workload}/{seed}/{k}")
    if workload == "spectrum":
        return _spectrum_cycle(rng)
    if workload == "split":
        return _split_cycle(rng)
    if workload == "adele-iso":
        return _adele_cycle(rng)
    if workload == "fv-eval":
        return _fv_cycle(rng, workdir, f"{seed}-{k}")
    raise ValueError(f"unknown workload {workload!r}")
