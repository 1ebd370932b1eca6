"""Prime decomposition in a number field presented by a monic integer polynomial.

For a field K = Q[x]/(f) and a rational prime p, the decomposition
p*O_K = P_1^e_1 ... P_g^e_g is reported as the list of pairs
(e_i, f_i) = (ramification index, residue degree).  Primes not dividing the
discriminant of f (and, more generally, primes not dividing the index
[O_K : Z[alpha]], detected by the Dedekind criterion) are handled by
factoring f mod p.  The remaining primes go through a one-level Newton
polygon analysis with exact valuations; if some residual polynomial is
inseparable the result is reported as Undetermined rather than guessed.

Everything here is a pure function over immutable values.  Decompositions are
cached per (coefficient sequence, prime) in a bounded least-recently-used
cache; the fill is idempotent and the cache is locked, so concurrent sweeps
are safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import (
    IntPoly,
    ModPoly,
    discriminant,
    factor_modp,
    parse_int_poly,
    _distinct_degree_parts,
    _divmod_modp,
    _gcd_modp,
    _mul,
    _squarefree_parts,
    _trim,
)
from .primes import is_prime, valuation

__all__ = [
    "NumberField",
    "PrimeDecomposition",
    "SplittingType",
    "Segment",
    "BadPrimeError",
    "InsufficientPrecisionError",
    "UndeterminedError",
    "RESOLVED",
    "UNDETERMINED",
    "METHOD_KUMMER",
    "METHOD_NEWTON",
    "good_prime_test",
    "kummer_decompose",
    "dedekind_index_test",
    "newton_polygon",
    "ore_local_decompose",
    "decompose",
    "splitting_type",
    "clear_decomposition_cache",
]


class BadPrimeError(ValueError):
    """Raised when Kummer factorization is requested at a prime where it may lie."""


class InsufficientPrecisionError(Exception):
    """Raised when a Newton polygon cannot be certified at the working precision."""


class UndeterminedError(ValueError):
    """Raised when an operation needs a Resolved decomposition but got Undetermined."""


RESOLVED = "Resolved"
UNDETERMINED = "Undetermined"
METHOD_KUMMER = "Kummer"
METHOD_NEWTON = "NewtonPolygon"


@dataclass(frozen=True, slots=True)
class NumberField:
    """A number field Q[x]/(min_poly) with min_poly monic and irreducible over Q.

    Construction checks that the polynomial is monic with nonzero
    discriminant and has no rational roots (degree >= 2).  Irreducibility
    beyond that is the caller's responsibility: certifying it in general
    would require factorization over Z, which this library does not do.
    """

    min_poly: IntPoly
    degree: int
    poly_disc: int
    label: str | None

    def __init__(self, min_poly: IntPoly, label: str | None = None):
        if not min_poly.is_monic or min_poly.degree < 1:
            raise ValueError("defining polynomial must be monic of degree >= 1")
        disc = discriminant(min_poly)
        if disc == 0:
            raise ValueError("defining polynomial must be squarefree (nonzero discriminant)")
        if min_poly.degree >= 2 and _has_rational_root(min_poly, disc):
            raise ValueError("defining polynomial has a rational root, so it is reducible")
        object.__setattr__(self, "min_poly", min_poly)
        object.__setattr__(self, "degree", min_poly.degree)
        object.__setattr__(self, "poly_disc", disc)
        object.__setattr__(self, "label", label)

    @classmethod
    def from_text(cls, text: str, label: str | None = None) -> "NumberField":
        return cls(parse_int_poly(text), label=label)

    def name(self) -> str:
        return self.label if self.label else self.min_poly.to_text()

    def __repr__(self) -> str:
        return f"NumberField({self.min_poly.to_text()!r}, label={self.label!r})"


def _has_rational_root(f: IntPoly, disc: int) -> bool:
    """True iff the monic f, of nonzero discriminant disc, has a rational root.

    A rational root is an integer r with |r| <= 1 + max|a_i|.  Modulo the
    least prime q not dividing disc every root of f is simple, so r is the
    symmetric residue of the Hensel lift of r mod q to any modulus above
    twice that bound; each lift is tested exactly.
    """
    if f.coeffs[0] == 0:
        return True
    bound = 1 + max(abs(c) for c in f.coeffs)
    q = 2
    while disc % q == 0 or not is_prime(q):
        q += 1
    df = f.derivative()
    for r in range(q):
        if f.evaluate(r) % q:
            continue
        m = q
        while m <= 2 * bound:
            m *= m
            r = (r - f.evaluate(r) * pow(df.evaluate(r), -1, m)) % m
        if f.evaluate(r - m if 2 * r > m else r) == 0:
            return True
    return False


@dataclass(frozen=True, slots=True)
class SplittingType:
    """Nondecreasing sequence of residue degrees (ramification indices omitted)."""

    degrees: tuple[int, ...]

    def __init__(self, degrees):
        ds = tuple(int(d) for d in degrees)
        if any(d < 1 for d in ds):
            raise ValueError("residue degrees must be positive")
        if any(a > b for a, b in zip(ds, ds[1:])):
            raise ValueError("residue degrees must be nondecreasing")
        object.__setattr__(self, "degrees", ds)

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self.degrees) + ")"

    def __repr__(self) -> str:
        return f"SplittingType({self.degrees})"


@dataclass(frozen=True, slots=True)
class PrimeDecomposition:
    """Decomposition of a rational prime in a number field.

    When status is Resolved, factors holds (e_i, f_i) pairs sorted by
    (f_i, e_i) ascending; method records which route produced them.  When
    Undetermined, reason says why.
    """

    prime: int
    status: str
    factors: tuple[tuple[int, int], ...] | None
    method: str | None
    reason: str | None = None

    @property
    def is_resolved(self) -> bool:
        return self.status == RESOLVED

    def ef_sum(self) -> int:
        if not self.is_resolved:
            raise UndeterminedError(f"decomposition at {self.prime} is undetermined")
        return sum(e * f for e, f in self.factors)

    def __str__(self) -> str:
        if self.is_resolved:
            body = "".join(f"({e},{f})" for e, f in self.factors)
            return f"p={self.prime}: {body} via {self.method}"
        return f"p={self.prime}: undetermined ({self.reason})"


def _resolved(prime: int, pairs: list[tuple[int, int]], method: str, degree: int) -> PrimeDecomposition:
    pairs = sorted(pairs, key=lambda ef: (ef[1], ef[0]))
    total = sum(e * f for e, f in pairs)
    if total != degree:
        raise AssertionError(
            f"internal error: sum of e*f is {total}, expected {degree} at p={prime}"
        )
    if any(e < 1 or f < 1 or e > degree or f > degree for e, f in pairs):
        raise AssertionError(f"internal error: e,f out of range at p={prime}")
    return PrimeDecomposition(prime, RESOLVED, tuple(pairs), method)


def splitting_type(d: PrimeDecomposition) -> SplittingType:
    """Sorted residue degrees of a Resolved decomposition."""
    if not d.is_resolved:
        raise UndeterminedError(f"decomposition at {d.prime} is undetermined")
    return SplittingType(sorted(f for _, f in d.factors))


# ---------------------------------------------------------------------------
# Good primes and Kummer factorization.


def good_prime_test(K: NumberField, p: int) -> bool:
    """True iff p does not divide the discriminant of the defining polynomial."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return K.poly_disc % p != 0


def _reduce(K: NumberField, p: int) -> list[int]:
    """The defining polynomial mod p (monic, so no coefficient is trimmed)."""
    return [c % p for c in K.min_poly.coeffs]


def _divides_index(K: NumberField, p: int, parts: list[tuple[list[int], int]]) -> bool:
    """Dedekind criterion on the squarefree parts of the defining polynomial mod p."""
    g_bar = [1]
    h_bar = [1]
    for poly, mult in parts:
        g_bar = _mul(g_bar, poly, p)
        for _ in range(mult - 1):
            h_bar = _mul(h_bar, poly, p)
    diff = IntPoly(g_bar) * IntPoly(h_bar) - K.min_poly
    t_coeffs = []
    for c in diff.coeffs:
        if c % p != 0:
            raise AssertionError("internal error: g*h does not reduce to f mod p")
        t_coeffs.append((c // p) % p)
    t_bar = _trim(t_coeffs)
    common = _gcd_modp(_gcd_modp(g_bar, h_bar, p), t_bar, p)
    return len(common) - 1 >= 1


def dedekind_index_test(K: NumberField, p: int) -> bool:
    """True iff p divides the index [O_K : Z[alpha]] (Dedekind criterion).

    With f = g*h + p*T where g lifts the radical of f mod p and h lifts the
    cofactor, p divides the index exactly when gcd(T, g, h) mod p is
    nonconstant.  When this returns False, factoring f mod p still gives the
    correct decomposition even though p divides disc(f).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _divides_index(K, p, _squarefree_parts(_reduce(K, p), p))


def kummer_decompose(K: NumberField, p: int) -> PrimeDecomposition:
    """Decomposition of p by factoring the defining polynomial mod p.

    Valid when p is a good prime, and extended to bad primes that the
    Dedekind criterion shows do not divide the index.  Each irreducible
    factor of multiplicity e and degree f contributes the pair (e, f); the
    pairs come from the distinct-degree counts of each squarefree part, so
    no factor is split out.  At a good prime f mod p is itself squarefree
    and is the only part.  Raises BadPrimeError instead of returning a
    possibly wrong answer.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    f_bar = _reduce(K, p)
    if K.poly_disc % p:
        parts = [(f_bar, 1)]
    else:
        parts = _squarefree_parts(f_bar, p)
        if _divides_index(K, p, parts):
            raise BadPrimeError(
                f"p={p} divides the index [O_K : Z[alpha]]; Kummer factorization does not apply"
            )
    pairs = [
        (mult, d)
        for part, mult in parts
        for d, g in _distinct_degree_parts(part, p)
        for _ in range((len(g) - 1) // d)
    ]
    return _resolved(p, pairs, METHOD_KUMMER, K.degree)


# ---------------------------------------------------------------------------
# Newton polygons at finite p-adic precision.


@dataclass(frozen=True, slots=True)
class Segment:
    """A polygon side: slope is the valuation drop per unit length."""

    slope: Fraction
    length: int


def _capped_valuation(n: int, p: int, cap: int) -> int | None:
    """v_p(n), or None when it cannot be certified below cap (including n == 0)."""
    if n % (p**cap) == 0:
        return None
    return valuation(n, p)


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lower convex hull vertices of integer points sorted by abscissa."""
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Keep the middle point only when the slopes strictly increase.
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _hull_value(hull: list[tuple[int, int]], x: int) -> Fraction:
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
    raise ValueError(f"abscissa {x} outside hull range")


def _certified_hull(vals: list[int | None], precision: int) -> list[tuple[int, int]]:
    """Hull of the points (i, vals[i]), refusing when unknown valuations could matter.

    vals[i] is None when the valuation is only known to be >= precision.  The
    hull is certified when every unknown point lies strictly above it.
    """
    known = [(i, v) for i, v in enumerate(vals) if v is not None]
    unknown = [i for i, v in enumerate(vals) if v is None]
    if not known:
        raise InsufficientPrecisionError("no coefficient valuation is certified")
    first = known[0][0]
    if any(i < first for i in unknown):
        raise InsufficientPrecisionError(
            f"valuation at position {min(unknown)} exceeds working precision {precision}"
        )
    hull = _lower_hull(known)
    for i in unknown:
        if i <= known[-1][0] and _hull_value(hull, i) >= precision:
            raise InsufficientPrecisionError(
                f"hull height at position {i} is not below working precision {precision}"
            )
    if any(v >= precision for _, v in hull):
        raise InsufficientPrecisionError("a hull vertex reaches the working precision")
    return hull


def newton_polygon(f_local: ModPoly, p: int) -> list[Segment]:
    """Newton polygon of a polynomial with coefficients known modulo p^m.

    Returns the sides of the lower convex hull of (i, v_p(a_i)) left to
    right; slopes (valuation drop per step) are strictly decreasing.  A
    coefficient congruent to 0 mod p^m has uncertain valuation; if that
    uncertainty could change the hull, InsufficientPrecisionError is raised.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f_local.is_zero:
        raise ValueError("Newton polygon of the zero polynomial is undefined")
    m = 0
    mod = f_local.modulus
    while mod % p == 0:
        mod //= p
        m += 1
    if mod != 1 or m < 1:
        raise ValueError(f"modulus {f_local.modulus} is not a power of {p}")
    vals = [_capped_valuation(c, p, m) for c in f_local.coeffs]
    hull = _certified_hull(vals, m)
    segments = [
        Segment(Fraction(y1 - y2, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]
    return segments


# ---------------------------------------------------------------------------
# Arithmetic in F_q = F_p[x]/(phi) and in F_q[y], used for residual polynomials.
# Elements of F_q are int tuples of length deg(phi); polynomials over F_q are
# lists of such tuples, constant term first, no trailing zeros.


class _Fq:
    def __init__(self, p: int, phibar: tuple[int, ...]):
        self.p = p
        self.phibar = list(phibar)
        self.deg = len(phibar) - 1
        self.q = p**self.deg
        self.zero = (0,) * self.deg
        self.one = tuple([1] + [0] * (self.deg - 1)) if self.deg > 0 else ()

    def make(self, coeffs: list[int]) -> tuple[int, ...]:
        r = _divmod_modp([c % self.p for c in coeffs], self.phibar, self.p)[1]
        return tuple(r + [0] * (self.deg - len(r)))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return self.make(_mul(list(a), list(b), self.p))

    def inv(self, a):
        return self.pow(a, self.q - 2)

    def pow(self, a, n):
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)


def _fqp_trim(a: list, ctx: _Fq) -> list:
    while a and ctx.is_zero(a[-1]):
        a.pop()
    return a


def _fqp_sub(a: list, b: list, ctx: _Fq) -> list:
    n = max(len(a), len(b))
    out = [ctx.zero] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = ctx.sub(out[i], y)
    return _fqp_trim(out, ctx)


def _fqp_mul(a: list, b: list, ctx: _Fq) -> list:
    if not a or not b:
        return []
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ctx.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return _fqp_trim(out, ctx)


def _fqp_divmod(a: list, b: list, ctx: _Fq) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial over F_q")
    inv_lc = ctx.inv(b[-1])
    r = list(a)
    db = len(b) - 1
    q = [ctx.zero] * max(len(a) - db, 0)
    while len(r) - 1 >= db and r:
        c = ctx.mul(r[-1], inv_lc)
        k = len(r) - 1 - db
        q[k] = c
        for j in range(db + 1):
            r[k + j] = ctx.sub(r[k + j], ctx.mul(c, b[j]))
        _fqp_trim(r, ctx)
    return _fqp_trim(q, ctx), r


def _fqp_gcd(a: list, b: list, ctx: _Fq) -> list:
    while b:
        _, r = _fqp_divmod(a, b, ctx)
        a, b = b, r
    if a:
        inv_lc = ctx.inv(a[-1])
        a = [ctx.mul(c, inv_lc) for c in a]
    return a


def _fqp_deriv(a: list, ctx: _Fq) -> list:
    out = []
    for i in range(1, len(a)):
        scalar = ctx.make([i])
        out.append(ctx.mul(scalar, a[i]))
    return _fqp_trim(out, ctx)


def _fqp_powmod(base: list, exp: int, mod: list, ctx: _Fq) -> list:
    result = [ctx.one]
    base = _fqp_divmod(base, mod, ctx)[1]
    while exp:
        if exp & 1:
            result = _fqp_divmod(_fqp_mul(result, base, ctx), mod, ctx)[1]
        base = _fqp_divmod(_fqp_mul(base, base, ctx), mod, ctx)[1]
        exp >>= 1
    return result


def _fqp_is_separable(a: list, ctx: _Fq) -> bool:
    return len(_fqp_gcd(list(a), _fqp_deriv(a, ctx), ctx)) == 1


def _fqp_ddf(a: list, ctx: _Fq) -> dict[int, int]:
    """Degrees of the irreducible factors of a separable polynomial over F_q."""
    counts: dict[int, int] = {}
    v = list(a)
    y = [ctx.zero, ctx.one]
    h = list(y)
    d = 0
    while len(v) - 1 > 2 * d:
        d += 1
        h = _fqp_powmod(h, ctx.q, v, ctx)
        g = _fqp_gcd(_fqp_sub(h, y, ctx), v, ctx)
        if len(g) > 1:
            counts[d] = (len(g) - 1) // d
            v = _fqp_divmod(v, g, ctx)[0]
            h = _fqp_divmod(h, v, ctx)[1]
    if len(v) > 1:
        deg = len(v) - 1
        counts[deg] = counts.get(deg, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# One-level Newton polygon (Ore) analysis.


class _IrregularCase(Exception):
    """Internal: the one-level analysis cannot resolve this prime."""


def _phi_expansion(f: IntPoly, phi: IntPoly, upto: int) -> list[IntPoly]:
    """Coefficients a_0..a_upto of the phi-adic expansion f = sum a_j phi^j."""
    out = []
    rest = f
    for _ in range(upto + 1):
        rest, r = rest.divmod_monic(phi)
        out.append(r)
    return out


def _gauss_valuation(a: IntPoly, p: int) -> int | None:
    """min_i v_p(coefficient i), exact; None for the zero polynomial."""
    return min((valuation(c, p) for c in a.coeffs if c), default=None)


def _residual_factor_degrees(
    a_list: list[IntPoly],
    vals: list[int | None],
    hull: list[tuple[int, int]],
    p: int,
    ctx: _Fq,
) -> list[tuple[int, int]]:
    """(e, residual-degree * deg phi) pairs from every side of the principal polygon."""
    pairs: list[tuple[int, int]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        drop = Fraction(y1 - y2, x2 - x1)
        e = drop.denominator
        h = drop.numerator
        length = x2 - x1
        d = length // e
        residual = []
        for j in range(d + 1):
            idx = x1 + j * e
            target = y1 - j * h
            if vals[idx] == target:
                scaled = [(c // p**target) % p for c in a_list[idx].coeffs]
                residual.append(ctx.make(scaled))
            else:
                residual.append(ctx.zero)
        if not _fqp_is_separable(residual, ctx):
            raise _IrregularCase(
                f"inseparable residual polynomial on the slope {h}/{e} side"
            )
        for rd, count in _fqp_ddf(residual, ctx).items():
            pairs.extend([(e, rd * ctx.deg)] * count)
    return pairs


def ore_local_decompose(K: NumberField, p: int) -> PrimeDecomposition:
    """One-level Newton polygon decomposition of p in K.

    For each distinct irreducible factor phi of the defining polynomial mod
    p, the phi-adic Newton polygon is computed; the phi-adic expansion is
    exact over Z, so every valuation is exact.  In the regular case (all
    residual polynomials separable) each side of slope h/e and each
    irreducible residual factor of degree d contributes (e, d*deg(phi)).
    Agrees with Kummer factorization on good primes.  Returns Undetermined
    when some residual polynomial is inseparable (deeper analysis is out of
    scope) or when a lift of phi divides the defining polynomial, which is
    then reducible.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    f = K.min_poly
    pairs: list[tuple[int, int]] = []
    try:
        for phibar, mult in factor_modp(f.reduce_mod(p)):
            if mult == 1:
                # Multiplicity-one factors lift by Hensel's lemma: unramified,
                # residue degree = deg(phi).
                pairs.append((1, phibar.degree))
                continue
            phi = phibar.lift()
            a_list = _phi_expansion(f, phi, mult)
            vals = [_gauss_valuation(a, p) for a in a_list]
            if vals[0] is None:
                raise _IrregularCase(
                    f"{phi.to_text()} divides the defining polynomial, which is reducible"
                )
            if vals[mult] != 0:
                raise AssertionError("internal error: phi-multiplicity endpoint must be a unit")
            if any(v == 0 for v in vals[:mult]):
                raise AssertionError("internal error: interior expansion coefficients must vanish mod p")
            hull = _lower_hull([(i, v) for i, v in enumerate(vals) if v is not None])
            ctx = _Fq(p, phibar.coeffs)
            pairs.extend(_residual_factor_degrees(a_list, vals, hull, p, ctx))
    except _IrregularCase as exc:
        return PrimeDecomposition(p, UNDETERMINED, None, METHOD_NEWTON, reason=str(exc))
    return _resolved(p, pairs, METHOD_NEWTON, K.degree)


# ---------------------------------------------------------------------------
# Dispatcher with caching.

# The largest working set of one command is the corpus self-check
# (`adelic --corpus`): 1,196 decompositions, every corpus field at every prime
# up to 200, which its later sweeps up to 100 and its equivalence checks read
# again.  The bound keeps all of them; per-prime sweeps such as spectrum,
# equiv and adele-iso reuse far fewer entries.
_CACHE_SIZE = 2048
_cache: OrderedDict[tuple[tuple[int, ...], int], PrimeDecomposition] = OrderedDict()
_cache_lock = threading.Lock()


def clear_decomposition_cache() -> None:
    with _cache_lock:
        _cache.clear()


def decompose(K: NumberField, p: int) -> PrimeDecomposition:
    """Decomposition of p in K: Kummer where valid, Newton polygon otherwise.

    Kummer factorization is used for good primes and for discriminant
    divisors that the Dedekind criterion clears; index divisors go through
    the one-level Newton polygon analysis.  Unresolvable cases come back as
    Undetermined with a reason, never as a wrong Resolved value.  Where
    Kummer factorization applies, the primality of p is checked once.
    """
    key = (K.min_poly.coeffs, p)
    with _cache_lock:
        dec = _cache.get(key)
        if dec is not None:
            _cache.move_to_end(key)
            return dec
    try:
        dec = kummer_decompose(K, p)
    except BadPrimeError:
        dec = ore_local_decompose(K, p)
    with _cache_lock:
        _cache[key] = dec
        if len(_cache) > _CACHE_SIZE:
            _cache.popitem(last=False)
    return dec
