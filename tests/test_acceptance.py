"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion asserts its stated tolerance (exact unless noted) and
its runtime budget.
"""

import os
import random
import subprocess
import sys
import time

import pytest

from adelic.corpus import corpus_field, corpus_fields
from adelic.exactpoly import (
    ModPoly,
    cz_factor,
    ddf,
    derive_seed,
    gcd_modp,
    parse_int_poly,
)
from adelic.finring import LocalQuotientRing, PermutedRing, ZmodRing, finite_ring_isomorphic
from adelic.fv import (
    FiniteFamily,
    GeneralizedSentence,
    formula_to_text,
    gen_product_eval,
    parse_boole_formula,
    parse_ring_formula,
    preservation_check,
    theta_set,
)
from adelic.invariants import (
    adele_iso_verdict,
    aq_distinguisher,
    arithmetic_equiv,
    degree_via_split_prime,
    keating_bound,
    signature,
    zeta_partial_coefficients,
)
from adelic.primes import primes_up_to
from adelic.splitting import decompose, good_prime_test, splitting_type

P = parse_int_poly


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} {mark}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_fundamental_identity():
    """Sum of e_i * f_i equals the field degree at every resolved prime <= 200."""
    t0 = time.monotonic()
    fields = corpus_fields()
    required = {"x^2 - 2", "x^2 - 3", "x^2 + 1", "x^3 - x - 1", "x^3 - 2",
                "x^7 - 7*x + 3", "x^7 + 14*x^4 - 42*x^2 - 21*x + 9"}
    present = {K.min_poly.to_text() for K in fields}
    assert required <= present
    assert len(fields) >= 20
    assert {K.degree for K in fields} == set(range(1, 9))
    violations = []
    resolved = 0
    for K in fields:
        for p in primes_up_to(200):
            dec = decompose(K, p)
            if dec.is_resolved:
                resolved += 1
                if dec.ef_sum() != K.degree:
                    violations.append((K.name(), p))
    elapsed = time.monotonic() - t0
    report(
        1,
        "fundamental identity over the corpus",
        not violations and elapsed < 60,
        f"{len(fields)} fields, {resolved} resolved decompositions, {elapsed:.1f}s",
    )


def test_criterion_02_ddf_cz_oracle_equivalence():
    """Distinct-degree counts equal the complete-factorization degree multiset."""
    t0 = time.monotonic()
    rng = random.Random(1234321)
    primes = [p for p in primes_up_to(99) if p >= 2]
    checked = 0
    ok = True
    while checked < 500:
        p = rng.choice(primes)
        deg = rng.randint(1, 10)
        f = ModPoly(p, [rng.randrange(p) for _ in range(deg)] + [1])
        if f.degree < 1 or gcd_modp(f, f.derivative()).degree != 0:
            continue
        counts = ddf(f)
        multiset: dict[int, int] = {}
        for g in cz_factor(f, derive_seed(p, f.coeffs)):
            multiset[g.degree] = multiset.get(g.degree, 0) + 1
        if counts != multiset:
            ok = False
            break
        checked += 1
    elapsed = time.monotonic() - t0
    report(2, "ddf counts match cz_factor degree multisets", ok and elapsed < 30,
           f"{checked} random squarefree instances, {elapsed:.1f}s")


def test_criterion_03_rational_field_distinguisher():
    ok = True
    for K in corpus_fields():
        hits = aq_distinguisher(K, 100)
        if K.degree == 1 and not hits:
            ok = False
        if K.degree > 1 and hits:
            ok = False
    report(3, "distinguisher separates the rational field", ok)


def test_criterion_04_degree_detection():
    """Detected degree equals the defining-polynomial degree corpus-wide.

    Detection starts at the bound 1000 and, as its contract prescribes on
    NotFound, the bound is raised (doubled) until a completely split prime
    appears; the degree-7 pair needs 1879, everything else detects below 1000.
    """
    ok = True
    raised = []
    for K in corpus_fields():
        bound = 1000
        result = degree_via_split_prime(K, bound)
        while result is None and bound <= 4000:
            bound *= 2
            result = degree_via_split_prime(K, bound)
        if result is None or result[0] != K.degree:
            ok = False
            break
        if bound > 1000:
            raised.append((K.name(), result[1]))
    witness_ok = degree_via_split_prime(corpus_field("Q(sqrt2)"), 1000) == (2, 7)
    report(4, "split-prime degree detection", ok and witness_ok,
           f"witness for x^2-2 is 7; raised bounds: {raised}")


def test_criterion_05_non_equivalence_witness():
    t0 = time.monotonic()
    v = arithmetic_equiv(corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt3)"), 100)
    elapsed = time.monotonic() - t0
    ok = (
        v.kind == "NotEquivalent"
        and v.witness_prime == 7
        and v.type_k.degrees == (1, 1)
        and v.type_l.degrees == (2,)
        and elapsed < 1
    )
    report(5, "quadratic pair separates with witness 7", ok, f"{elapsed:.2f}s")


def test_criterion_06_equivalent_pair():
    """Degree-7 pair: independent factorization sweep, bounded equivalence,
    and coefficientwise agreement of good-prime Euler products to 100."""
    t0 = time.monotonic()
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    K, L = corpus_field("deg7-pair-a"), corpus_field("deg7-pair-b")

    def sympy_type(field, p):
        expr = sum(c * x**i for i, c in enumerate(field.min_poly.coeffs))
        fl = sympy.Poly(expr, x, modulus=p).factor_list()[1]
        return tuple(sorted(d for g, m in fl for d in [sympy.Poly(g, x).degree()] * m))

    sweep_ok = True
    for p in primes_up_to(200):
        if not (good_prime_test(K, p) and good_prime_test(L, p)):
            continue
        if sympy_type(K, p) != sympy_type(L, p):
            sweep_ok = False
            break
        if sympy_type(K, p) != splitting_type(decompose(K, p)).degrees:
            sweep_ok = False
            break
    v = arithmetic_equiv(K, L, 200)
    good = tuple(p for p in primes_up_to(100) if good_prime_test(K, p) and good_prime_test(L, p))
    euler_ok = zeta_partial_coefficients(K, 100, restrict_to=good) == zeta_partial_coefficients(
        L, 100, restrict_to=good
    )
    elapsed = time.monotonic() - t0
    ok = sweep_ok and v.kind == "EquivalentUpToBound" and euler_ok and elapsed < 30
    report(6, "degree-7 pair equivalent up to 200 with matching Euler products", ok,
           f"{v.compared_count} primes compared, {elapsed:.1f}s")


def test_criterion_07_signatures():
    ok = (
        signature(corpus_field("Q(sqrt2)")).r1 == 2
        and signature(corpus_field("Q(sqrt2)")).r2 == 0
        and signature(corpus_field("Q(i)")).r1 == 0
        and signature(corpus_field("Q(i)")).r2 == 1
        and signature(corpus_field("plastic-cubic")).r1 == 1
        and signature(corpus_field("plastic-cubic")).r2 == 1
    )
    for K in corpus_fields():
        s = signature(K)
        ok = ok and (s.r1 + 2 * s.r2 == K.degree)
    report(7, "signatures", ok)


def test_criterion_08_keating_bound():
    ok = keating_bound(3, 1) == 2 and keating_bound(2, 2) == 5
    ok = ok and all(keating_bound(p, 1) == 2 for p in primes_up_to(100))
    report(8, "truncation-level bounds", ok)


def test_criterion_09_adele_pipeline():
    t0 = time.monotonic()
    v1 = adele_iso_verdict(corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt2)"), 100)
    t1 = time.monotonic()
    v2 = adele_iso_verdict(corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt3)"), 100)
    t2 = time.monotonic()
    v3 = adele_iso_verdict(corpus_field("Q(sqrt2)"), corpus_field("Q(i)"), 3)
    t3 = time.monotonic()
    ok = (
        v1.kind == "IsomorphicCertified"
        and v2.kind == "NotIsomorphic"
        and v2.witness == 7
        and v3.kind == "NotIsomorphic"
        and "signature" in v3.reason
        and (t1 - t0) < 5
        and (t2 - t1) < 5
        and (t3 - t2) < 5
    )
    report(9, "adele-isomorphism pipeline verdicts", ok,
           f"{t1-t0:.2f}s / {t2-t1:.2f}s / {t3-t2:.2f}s")


def test_criterion_10_finite_ring_isomorphism():
    z4 = ZmodRing(4)
    f4 = LocalQuotientRing(2, 1, 2, None, 1)
    f2t = LocalQuotientRing(2, 2, 1, P("x^2-2"), 2)
    trio = [z4, f4, f2t]
    ok = all(finite_ring_isomorphic(r, r) for r in trio)
    for i, a in enumerate(trio):
        for b in trio[i + 1 :]:
            ok = ok and not finite_ring_isomorphic(a, b) and not finite_ring_isomorphic(b, a)
    # equivalence-relation properties over the residue-ring test set
    rng = random.Random(10)
    rings = [
        z4,
        f4,
        f2t,
        ZmodRing(9),
        LocalQuotientRing(3, 1, 1, None, 2),
        LocalQuotientRing(2, 2, 1, P("x^2-2"), 5),
        LocalQuotientRing(2, 2, 1, P("x^2+4*x+2"), 5),
        LocalQuotientRing(2, 2, 1, P("x^2-6"), 6),
        LocalQuotientRing(2, 2, 1, P("x^2-2"), 6),
    ]
    for base in (z4, f4, f2t):
        perm = list(range(base.order))
        rng.shuffle(perm)
        rings.append(PermutedRing(base, perm))
    n = len(rings)
    verdict = [[finite_ring_isomorphic(rings[i], rings[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        ok = ok and verdict[i][i]
        for j in range(n):
            ok = ok and verdict[i][j] == verdict[j][i]
            for k in range(n):
                if verdict[i][j] and verdict[j][k]:
                    ok = ok and verdict[i][k]
    report(10, "finite-ring isomorphism separations and equivalence laws", ok)


def test_criterion_11_fv_semantics():
    t0 = time.monotonic()
    rng = random.Random(111111)
    fam = FiniteFamily(
        ("a", "b", "c"), {"a": ZmodRing(2), "b": ZmodRing(3), "c": ZmodRing(5)}
    )
    universe = frozenset(fam.index_set)

    def rand_formula(max_free, depth=2, bound=()):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            def term(d=2):
                if d == 0 or rng.random() < 0.45:
                    pool = ([f"w{rng.randrange(max_free)}"] if max_free else []) + list(bound) + ["0", "1"]
                    return rng.choice(pool)
                return f"({term(d-1)} {rng.choice(['+', '-', '*'])} {term(d-1)})"
            return f"{term()} = {term()}"
        if roll < 0.55:
            return f"not ({rand_formula(max_free, depth - 1, bound)})"
        if roll < 0.8:
            op = rng.choice(["and", "or"])
            return f"({rand_formula(max_free, depth - 1, bound)}) {op} ({rand_formula(max_free, depth - 1, bound)})"
        name = rng.choice(["y", "z"])
        return f"exists {name} ({rand_formula(max_free, depth - 1, bound + (name,))})"

    hom_ok = True
    for _ in range(100):
        t1 = parse_ring_formula(rand_formula(2))
        t2 = parse_ring_formula(rand_formula(2))
        els = tuple({i: rng.randrange(fam.stalks[i].order) for i in fam.index_set} for _ in range(2))
        s1, s2 = theta_set(t1, fam, els), theta_set(t2, fam, els)
        neg = parse_ring_formula(f"not ({formula_to_text(t1)})")
        conj = parse_ring_formula(f"({formula_to_text(t1)}) and ({formula_to_text(t2)})")
        if theta_set(neg, fam, els) != universe - s1 or theta_set(conj, fam, els) != s1 & s2:
            hom_ok = False
            break

    pres_ok = True
    base_rings = [ZmodRing(4), ZmodRing(3), LocalQuotientRing(2, 1, 2, None, 1), ZmodRing(5)]
    for trial in range(100):
        labels = ("a", "b")
        picks = [rng.choice(base_rings) for _ in labels]
        relabeled = []
        for ring in picks:
            perm = list(range(ring.order))
            rng.shuffle(perm)
            relabeled.append(PermutedRing(ring, perm))
        fam1 = FiniteFamily(labels, dict(zip(labels, picks)))
        fam2 = FiniteFamily(labels, dict(zip(labels, relabeled)))
        theta = parse_ring_formula(rand_formula(0))
        psi = parse_boole_formula(rng.choice(["v0 = 1", "v0 = 0", "not (v0 = 1)", "Fin(v0)"]))
        rep = preservation_check(fam1, fam2, [GeneralizedSentence(psi, (theta,))])
        if not (rep.precondition_ok and rep.all_agree):
            pres_ok = False
            break

    ones = {"a": 1, "b": 1, "c": 1}
    worked = (
        gen_product_eval(GeneralizedSentence(parse_boole_formula("v0 = 1"), (parse_ring_formula("w0 = w0"),)), fam, (ones,))
        and not gen_product_eval(GeneralizedSentence(parse_boole_formula("v0 = 0"), (parse_ring_formula("w0 = w0"),)), fam, (ones,))
        and gen_product_eval(GeneralizedSentence(parse_boole_formula("not (v0 = 1)"), (parse_ring_formula("w0 + w0 = 0"),)), fam, (ones,))
    )
    elapsed = time.monotonic() - t0
    ok = hom_ok and pres_ok and worked and elapsed < 30
    report(11, "generalized-product semantics", ok, f"{elapsed:.1f}s")


def test_criterion_12_determinism():
    import adelic

    # The child imports the same adelic as this process, installed or not.
    src = os.path.dirname(os.path.dirname(adelic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-m", "adelic.cli", "--corpus"]
    out1 = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
    out2 = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
    report(12, "byte-identical corpus runs", out1 == out2 and len(out1) > 0,
           f"{len(out1)} bytes")
