"""Prime decomposition in a number field presented by a monic integer polynomial.

For a field K = Q[x]/(f) and a rational prime p, the decomposition
p*O_K = P_1^e_1 ... P_g^e_g is reported as the list of pairs
(e_i, f_i) = (ramification index, residue degree).  Every prime takes one
route.  Each part of multiplicity one of f mod p gives an unramified pair per
irreducible factor, counted by the distinct-degree stage; at a prime not
dividing the discriminant of f, f mod p is that one part.  Each irreducible
phi of a repeated part gives a phi-adic Newton polygon with exact valuations.
When every such polygon has height one, p does not divide the index
[O_K : Z[alpha]] and the answer is Kummer's: (multiplicity, deg phi) for each
phi.  Otherwise each side is analysed through its residual polynomial; if some
residual polynomial is inseparable the result is reported as Undetermined
rather than guessed.

Everything here is a pure function over immutable values, so concurrent
sweeps are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exactpoly import (
    IntPoly,
    derive_seed,
    discriminant,
    parse_int_poly,
    _add,
    _distinct_degree_parts,
    _divmod_monic,
    _factor_modp,
    _gcd_modp,
    _is_squarefree_modp,
    _monic_modp,
    _mul,
    _neg,
    _powmod,
    _squarefree_parts,
    _sub,
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
    """Formerly raised by the finite-precision Newton polygon; nothing raises it now.

    Every valuation is exact over Z, so no polygon is uncertain.  The class
    stays importable for callers that still catch it.
    """


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
# Good primes.


def good_prime_test(K: NumberField, p: int) -> bool:
    """True iff p does not divide the discriminant of the defining polynomial."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return K.poly_disc % p != 0


# ---------------------------------------------------------------------------
# Exact Newton polygons.


@dataclass(frozen=True, slots=True)
class Segment:
    """A polygon side: slope is the valuation drop per unit length."""

    slope: Fraction
    length: int


def _sides(vals: list[int | None]) -> list[tuple[int, int, Segment]]:
    """(x, y, side) for each side of the lower convex hull of the points (i, vals[i]).

    None in vals means no point.  (x, y) is the left end of the side; sides
    run left to right, so their slopes strictly decrease.
    """
    hull: list[tuple[int, int]] = []
    for pt in ((i, v) for i, v in enumerate(vals) if v is not None):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Keep the middle point only when the slopes strictly increase.
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return [
        (x1, y1, Segment(Fraction(y1 - y2, x2 - x1), x2 - x1))
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]


def newton_polygon(f: IntPoly, p: int) -> list[Segment]:
    """Newton polygon of f at p: the sides of the lower hull of (i, v_p(a_i)).

    Zero coefficients give no point.  Sides run left to right, so slopes
    (valuation drop per step) strictly decrease.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.is_zero:
        raise ValueError("Newton polygon of the zero polynomial is undefined")
    return [side for _, _, side in _sides([valuation(c, p) if c else None for c in f.coeffs])]


# ---------------------------------------------------------------------------
# Residual polynomials over F_q = F_p[x]/(phi), q = p^deg(phi).  They run on
# exactpoly's coefficient-list helpers with modulus q, their entries elements
# of _Fq or int 0 (never a nonzero int, which _monic_modp would invert mod q).


class _Fq:
    """An element of F_q = F_p[x]/(phi), phi monic irreducible mod p: its
    coefficient list reduced mod (phi, p).  An int operand means its residue
    mod p, x % q is x and pow(x, q - 2, q) inverts x, so exactpoly's list
    helpers, given the modulus q, run over F_q."""

    __slots__ = ("c", "phi", "p")

    def __init__(self, c: list[int], phi: list[int], p: int):
        self.c, self.phi, self.p = c, phi, p

    def _coeffs(self, other: "_Fq | int") -> list[int]:
        return other.c if isinstance(other, _Fq) else _trim([other % self.p])

    def __add__(self, other):
        return _Fq(_add(self.c, self._coeffs(other), self.p), self.phi, self.p)

    __radd__ = __add__

    def __neg__(self):
        return _Fq(_neg(self.c, self.p), self.phi, self.p)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        product = _mul(self.c, self._coeffs(other), self.p)
        return _Fq(_divmod_monic(product, self.phi, self.p)[1], self.phi, self.p)

    __rmul__ = __mul__

    def __mod__(self, q: int) -> "_Fq":
        return self

    def __pow__(self, exp: int, q: int | None = None) -> "_Fq":
        return _Fq(_powmod(self.c, exp, self.phi, self.p), self.phi, self.p)

    def __eq__(self, other) -> bool:
        return self.c == self._coeffs(other)

    def __bool__(self) -> bool:
        return bool(self.c)


def _qth_power_mod(h: list, v: list, q: int) -> list:
    """h^q modulo the monic v over F_q, h reduced mod v, by square-and-multiply."""
    result = [v[-1]]  # 1 in F_q
    for bit in bin(q)[2:]:
        result = _divmod_monic(_mul(result, result, q), v, q)[1]
        if bit == "1":
            result = _divmod_monic(_mul(result, h, q), v, q)[1]
    return result


def _fq_degree_counts(v: list, q: int) -> dict[int, int]:
    """Degree -> number of irreducible factors of the squarefree v over F_q:
    the distinct-degree loop, gcd(y^(q^d) - y, v) for d = 1, 2, ..."""
    counts: dict[int, int] = {}
    v = _monic_modp(v, q)
    h = y = [0, v[-1]]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _qth_power_mod(h, v, q)
        g = _gcd_modp(_sub(h, y, q), v, q)
        if len(g) > 1:
            counts[d] = (len(g) - 1) // d
            v = _divmod_monic(v, g, q)[0]
            h = _divmod_monic(h, v, q)[1]
    if len(v) > 1:
        deg = len(v) - 1
        counts[deg] = counts.get(deg, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# One route per prime: phi-adic Newton polygons, of height one in Kummer's case.


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
    a_list: list[IntPoly], vals: list[int | None], phi: list[int], p: int,
    pairs: list[tuple[int, int]],
) -> str | None:
    """Append to pairs (e, residual-degree * deg phi) from every side of the
    principal polygon; return why the one-level analysis stops, or None.

    Each a_j has degree below deg phi, so a_j / p^v reduced mod p is already
    an element of F_q.
    """
    q = p ** (len(phi) - 1)
    for x, y, side in _sides(vals):
        h, e = side.slope.numerator, side.slope.denominator
        residual = [
            _Fq(_trim([c // p ** (y - j * h) % p for c in a_list[x + j * e].coeffs]), phi, p)
            if vals[x + j * e] == y - j * h
            else 0
            for j in range(side.length // e + 1)
        ]
        if not _is_squarefree_modp(residual, q):
            return f"inseparable residual polynomial on the slope {h}/{e} side"
        for rd, count in _fq_degree_counts(residual, q).items():
            pairs.extend([(e, rd * (len(phi) - 1))] * count)
    return None


def _decompose(K: NumberField, p: int) -> PrimeDecomposition:
    """Decomposition of the prime p in K by the one route of this module.

    A good prime has no repeated part, so the distinct-degree counts are its
    whole answer.  Only a bad prime splits f mod p into squarefree parts, and
    only their repeated parts into irreducibles phi, by factor_modp's loop and
    in its (degree, coefficients, multiplicity) order, so that an Undetermined
    reason is that of the least phi that stops.  A phi of multiplicity k whose
    polygon has height one, v_p(a_0) = 1, has one side of slope 1/k and a
    linear residual polynomial, so it gives (k, deg phi).
    """
    f_bar = [c % p for c in K.min_poly.coeffs]  # monic, so nothing to trim
    good = K.poly_disc % p != 0
    parts = [(f_bar, 1)] if good else _squarefree_parts(f_bar, p)
    pairs = [
        (1, d)
        for part, mult in parts
        if mult == 1
        for d, g in _distinct_degree_parts(part, p)
        for _ in range((len(g) - 1) // d)
    ]
    if good:
        return _resolved(p, pairs, METHOD_KUMMER, K.degree)
    repeated = _factor_modp(
        [(part, mult) for part, mult in parts if mult > 1], p, derive_seed(p, tuple(f_bar))
    )
    polygons = []
    for phi, mult in repeated:
        a_list = _phi_expansion(K.min_poly, IntPoly(phi), mult)
        polygons.append((phi, mult, a_list, [_gauss_valuation(a, p) for a in a_list]))
    if all(vals[0] == 1 for *_, vals in polygons):
        pairs.extend((mult, len(phi) - 1) for phi, mult, _, _ in polygons)
        return _resolved(p, pairs, METHOD_KUMMER, K.degree)
    for phi, mult, a_list, vals in polygons:
        if vals[0] is None:
            reason = f"{IntPoly(phi).to_text()} divides the defining polynomial, which is reducible"
        else:
            if vals[mult] != 0:
                raise AssertionError("internal error: phi-multiplicity endpoint must be a unit")
            if any(v == 0 for v in vals[:mult]):
                raise AssertionError("internal error: interior expansion coefficients must vanish mod p")
            reason = _residual_factor_degrees(a_list, vals, phi, p, pairs)
        if reason:
            return PrimeDecomposition(p, UNDETERMINED, None, METHOD_NEWTON, reason=reason)
    return _resolved(p, pairs, METHOD_NEWTON, K.degree)


def dedekind_index_test(K: NumberField, p: int) -> bool:
    """True iff p divides the index [O_K : Z[alpha]] (Dedekind criterion).

    In polygon terms: p divides the index exactly when some irreducible phi
    of multiplicity at least 2 in f mod p has v_p(f mod phi) >= 2, that is,
    when some phi-adic polygon is not one side of height one.  (With
    f = g*h + p*T, g lifting the radical of f mod p and h the cofactor,
    f mod phi = p*T mod (phi, p^2), so this is phi | gcd(g, h, T) mod p.)
    When this returns False, factoring f mod p gives the decomposition even
    though p may divide disc(f).
    """
    return decompose(K, p).method == METHOD_NEWTON


def kummer_decompose(K: NumberField, p: int) -> PrimeDecomposition:
    """Decomposition of p by factoring the defining polynomial mod p.

    Valid when p does not divide the index [O_K : Z[alpha]], which covers
    every good prime: each irreducible factor of multiplicity e and degree f
    contributes the pair (e, f).  Raises BadPrimeError at an index divisor
    instead of returning a possibly wrong answer.
    """
    dec = decompose(K, p)
    if dec.method == METHOD_NEWTON:
        raise BadPrimeError(
            f"p={p} divides the index [O_K : Z[alpha]]; Kummer factorization does not apply"
        )
    return dec


def ore_local_decompose(K: NumberField, p: int) -> PrimeDecomposition:
    """Decomposition of p in K from its phi-adic Newton polygons, labelled
    NewtonPolygon.

    In the regular case (all residual polynomials separable) each side of
    slope h/e and each irreducible residual factor of degree d contributes
    (e, d*deg(phi)), and each simple factor phi of f mod p lifts to
    (1, deg(phi)); this is Kummer's answer wherever that applies.  Returns
    Undetermined when some residual polynomial is inseparable (deeper
    analysis is out of scope) or when a lift of phi divides the defining
    polynomial, which is then reducible.
    """
    return replace(decompose(K, p), method=METHOD_NEWTON)


# ---------------------------------------------------------------------------
# The public entry point.


def clear_decomposition_cache() -> None:
    """Does nothing: decompositions are not cached.

    Kept for callers written when they were, such as the benchmark harness,
    which calls it before every op.
    """


def decompose(K: NumberField, p: int) -> PrimeDecomposition:
    """Decomposition of p in K, labelled Kummer or NewtonPolygon.

    Good primes and discriminant divisors that Dedekind's criterion clears
    are labelled Kummer; index divisors NewtonPolygon.  Unresolvable cases
    come back as Undetermined with a reason, never as a wrong Resolved value.
    The primality of p is checked here, and only here: the other public
    routes of this module call this one.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _decompose(K, p)
