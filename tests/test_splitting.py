"""Tests for prime decomposition: Kummer, Dedekind criterion, Newton polygons."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from adelic.exactpoly import (
    IntPoly,
    ModPoly,
    discriminant,
    factor_modp,
    gcd_modp,
    parse_int_poly,
    _distinct_degree_loop,
    _distinct_degree_parts,
    _gcd_modp,
    _is_squarefree_modp,
    _monic_modp,
    _mul,
    _powmod,
    _squarefree_parts,
    _trim,
)
from adelic import splitting
from adelic.primes import primes_up_to, valuation
from adelic.splitting import (
    METHOD_KUMMER,
    METHOD_NEWTON,
    RESOLVED,
    UNDETERMINED,
    BadPrimeError,
    NumberField,
    PrimeDecomposition,
    Segment,
    SplittingType,
    UndeterminedError,
    clear_decomposition_cache,
    decompose,
    _has_rational_root,
    dedekind_index_test,
    good_prime_test,
    kummer_decompose,
    newton_polygon,
    ore_local_decompose,
    splitting_type,
)
from adelic.corpus import corpus_field, corpus_fields

P = parse_int_poly


# ---------------------------------------------------------------------------
# NumberField construction.


def test_number_field_basic():
    K = NumberField(P("x^2-2"), "Q(sqrt2)")
    assert K.degree == 2 and K.poly_disc == 8 and K.label == "Q(sqrt2)"


def test_number_field_rejects_bad_input():
    with pytest.raises(ValueError):
        NumberField(P("2*x^2 - 1"))  # not monic
    with pytest.raises(ValueError):
        NumberField(P("x^2 - 2*x + 1"))  # not squarefree
    with pytest.raises(ValueError):
        NumberField(P("x^2 - 1"))  # rational roots
    with pytest.raises(ValueError):
        NumberField(P("x^3 + x^2"))  # root at zero


def test_has_rational_root_against_trial_division():
    def by_trial_division(f):
        c0 = f.coeffs[0]
        divisors = [d for d in range(1, abs(c0) + 1) if c0 % d == 0]
        return c0 == 0 or any(f.evaluate(r) == 0 for d in divisors for r in (d, -d))

    rng = random.Random(5)
    checked = 0
    for _ in range(600):
        f = IntPoly([rng.randint(-60, 60) for _ in range(rng.randint(2, 5))] + [1])
        if rng.random() < 0.3:
            f = f * IntPoly((-rng.randint(-12, 12), 1))  # plant an integer root
        disc = discriminant(f)
        if disc != 0:
            assert _has_rational_root(f, disc) == by_trial_division(f), f
            checked += 1
    assert checked > 500
    # constant terms far past trial division: the root 10^10, then none
    yes = P("x^3 - 1000000000000000000000000000000")
    no = P("x^3 - 1000000000000000000000000000007")
    assert _has_rational_root(yes, discriminant(yes))
    assert not _has_rational_root(no, discriminant(no))


def test_splitting_type_validation():
    assert SplittingType((1, 1, 2)).degrees == (1, 1, 2)
    with pytest.raises(ValueError):
        SplittingType((2, 1))
    with pytest.raises(ValueError):
        SplittingType((0, 1))


# ---------------------------------------------------------------------------
# Good primes and Kummer.


def test_good_prime_examples():
    K2 = corpus_field("Q(sqrt2)")
    assert good_prime_test(K2, 7)
    assert not good_prime_test(K2, 2)
    assert not good_prime_test(corpus_field("plastic-cubic"), 23)


def test_good_prime_rejects_composite():
    with pytest.raises(ValueError):
        good_prime_test(corpus_field("Q(sqrt2)"), 6)


def test_kummer_examples():
    K2 = corpus_field("Q(sqrt2)")
    assert kummer_decompose(K2, 7).factors == ((1, 1), (1, 1))
    assert kummer_decompose(K2, 3).factors == ((1, 2),)
    assert kummer_decompose(corpus_field("Q"), 5).factors == ((1, 1),)


def test_kummer_raises_at_index_divisor():
    K = corpus_field("index-divisor-cubic")
    with pytest.raises(BadPrimeError):
        kummer_decompose(K, 2)


def test_factors_sorted_by_residue_degree_then_e():
    dec = decompose(corpus_field("plastic-cubic"), 23)
    assert dec.factors == ((1, 1), (2, 1))
    assert splitting_type(dec).degrees == (1, 1)


# ---------------------------------------------------------------------------
# Dedekind index criterion.


def test_dedekind_examples():
    assert not dedekind_index_test(corpus_field("Q(sqrt2)"), 2)
    assert not dedekind_index_test(corpus_field("Q(sqrt3)"), 2)
    assert dedekind_index_test(corpus_field("index-divisor-cubic"), 2)


def _dedekind_by_full_factorization(f: IntPoly, p: int) -> bool:
    """Dedekind criterion with g, h built from the irreducible factors of f mod p."""
    g = h = ModPoly(p, (1,))
    for poly, mult in factor_modp(f.reduce_mod(p)):
        g = g * poly
        for _ in range(mult - 1):
            h = h * poly
    t = ModPoly(p, [c // p for c in (g.lift() * h.lift() - f).coeffs])
    return gcd_modp(gcd_modp(g, h), t).degree >= 1


def _random_fields():
    """Fields from random monic polynomials of degree 2 to 6 (seed 11)."""
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 6)
        f = IntPoly([rng.randint(-30, 30) for _ in range(n)] + [1])
        try:
            yield NumberField(f)
        except ValueError:
            continue


def test_kummer_and_dedekind_match_full_factorization_sweep():
    """Squarefree parts plus DDF counts agree with factor_modp on random fields."""
    cleared = index_divisors = 0
    for K in _random_fields():
        f = K.min_poly
        for p in primes_up_to(40):
            expected = sorted((mult, g.degree) for g, mult in factor_modp(f.reduce_mod(p)))
            divides = _dedekind_by_full_factorization(f, p)
            assert dedekind_index_test(K, p) == divides, (f, p)
            if divides:
                index_divisors += 1
                with pytest.raises(BadPrimeError):
                    kummer_decompose(K, p)
                continue
            cleared += not good_prime_test(K, p)
            assert sorted(kummer_decompose(K, p).factors) == expected, (f, p)
    assert cleared > 50 and index_divisors > 10


# ---------------------------------------------------------------------------
# Route oracle: the two routes that decompose took before there was one.
# Kummer factorization ran wherever the Dedekind criterion, computed from the
# product g*h*T, cleared p; index divisors fell back to a Newton analysis on a
# full factorization of f mod p.  The polygon primitives are shared.


def _oracle_divides_index(K, p, parts):
    g_bar = [1]
    h_bar = [1]
    for poly, mult in parts:
        g_bar = _mul(g_bar, poly, p)
        for _ in range(mult - 1):
            h_bar = _mul(h_bar, poly, p)
    diff = IntPoly(g_bar) * IntPoly(h_bar) - K.min_poly
    assert all(c % p == 0 for c in diff.coeffs)
    t_bar = _trim([(c // p) % p for c in diff.coeffs])
    return len(_gcd_modp(_gcd_modp(g_bar, h_bar, p), t_bar, p)) > 1


def _oracle_kummer(K, p):
    f_bar = [c % p for c in K.min_poly.coeffs]
    if K.poly_disc % p:
        parts = [(f_bar, 1)]
    else:
        parts = _squarefree_parts(f_bar, p)
        if _oracle_divides_index(K, p, parts):
            raise BadPrimeError(p)
    pairs = [
        (mult, d)
        for part, mult in parts
        for d, g in _distinct_degree_parts(part, p)
        for _ in range((len(g) - 1) // d)
    ]
    return splitting._resolved(p, pairs, METHOD_KUMMER, K.degree)


def _oracle_ore(K, p):
    f = K.min_poly
    pairs = []
    for phibar, mult in factor_modp(f.reduce_mod(p)):
        if mult == 1:
            pairs.append((1, phibar.degree))
            continue
        phi = phibar.lift()
        a_list = splitting._phi_expansion(f, phi, mult)
        vals = [splitting._gauss_valuation(a, p) for a in a_list]
        if vals[0] is None:
            reason = f"{phi.to_text()} divides the defining polynomial, which is reducible"
        else:
            reason = splitting._residual_factor_degrees(a_list, vals, list(phibar.coeffs), p, pairs)
        if reason:
            return PrimeDecomposition(p, UNDETERMINED, None, METHOD_NEWTON, reason=reason)
    return splitting._resolved(p, pairs, METHOD_NEWTON, K.degree)


def _oracle_decompose(K, p):
    try:
        return _oracle_kummer(K, p)
    except BadPrimeError:
        return _oracle_ore(K, p)


def _polygon_fields():
    """(K, p) with f = phi1^k1 * phi2^k2 + p^m * g, phi_i irreducible mod p of
    degree 2 or 3 (phi2 = 1 in half the cases) and deg g < deg phi1^k1 phi2^k2.
    m = 1 with p not dividing g gives polygons of height one; m >= 2 gives
    index divisors, Undetermined ones among them when p divides gcd(m, k1)."""
    from adelic.exactpoly import is_irreducible_modp

    rng = random.Random(7)
    while True:
        p = rng.choice([2, 3, 5, 7])
        phis = []
        while len(phis) < rng.choice([1, 2]):
            phi = IntPoly([rng.randrange(p) for _ in range(rng.choice([2, 3]))] + [1])
            if is_irreducible_modp(phi.reduce_mod(p)) and phi not in phis:
                phis.append(phi)
        head = IntPoly.one()
        for phi in phis:
            head = head * phi ** rng.choice([2, 3])
        if head.degree > 9:
            continue
        g = IntPoly([rng.randint(-p, p) for _ in range(rng.randint(1, head.degree))])
        m = rng.randint(1, 5)
        try:
            yield NumberField(head + IntPoly((p**m,)) * g), p
        except ValueError:
            continue


def test_one_route_matches_the_two_route_oracle():
    """decompose, kummer_decompose, ore_local_decompose and dedekind_index_test
    read one route; each agrees with the two-route oracle on status, factors,
    method and reason."""
    cases = [(K, p) for K in _random_fields() for p in primes_up_to(40)]
    polygon_cases = _polygon_fields()
    cases += [next(polygon_cases) for _ in range(300)]
    # both polygons stop, on sides of slope 1 and 2: the reason reported is
    # that of x^2 + x + 1, the first factor in (degree, coefficients) order
    phi1, phi2 = P("x^2 + x + 1"), P("x^3 + x + 1")
    two_stops = NumberField(phi1**2 * phi2**2 + IntPoly((4,)) * phi2**2 + IntPoly((16,)))
    assert "slope 1/1" in decompose(two_stops, 2).reason
    cases.append((two_stops, 2))
    seen = Counter()
    for K, p in cases:
        want = _oracle_decompose(K, p)
        assert decompose(K, p) == want, (K, p)
        assert ore_local_decompose(K, p) == _oracle_ore(K, p), (K, p)
        divides = want.method == METHOD_NEWTON
        assert dedekind_index_test(K, p) == divides, (K, p)
        if divides:
            with pytest.raises(BadPrimeError):
                kummer_decompose(K, p)
        else:
            assert kummer_decompose(K, p) == want, (K, p)
        seen[want.method, want.status, K.poly_disc % p == 0] += 1
    # every route is taken: good primes, cleared bad primes, resolved and
    # undetermined index divisors
    assert seen[METHOD_KUMMER, RESOLVED, False] > 100
    assert seen[METHOD_KUMMER, RESOLVED, True] > 50
    assert seen[METHOD_NEWTON, RESOLVED, True] > 50
    assert seen[METHOD_NEWTON, UNDETERMINED, True] > 10


def test_dedekind_against_maximal_order_oracle():
    """Index divisibility cross-checked against a maximal-order computation."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import round_two

    x = sympy.symbols("x")
    cases = [
        "x^3 + x^2 - 2*x + 8",
        "x^2 - 3",
        "x^3 - x - 1",
        "x^3 - 2",
        "x^4 - 10*x^2 + 1",
        "x^5 - 2",
    ]
    for text in cases:
        K = NumberField(P(text))
        expr = sum(c * x**i for i, c in enumerate(K.min_poly.coeffs))
        _, disc_field = round_two(sympy.Poly(expr, x))
        index_sq = K.poly_disc // int(disc_field)
        for p in primes_up_to(30):
            if K.poly_disc % p != 0:
                continue
            # disc(f) = index^2 * disc(K), so p | index iff v_p(disc ratio) >= 2
            assert dedekind_index_test(K, p) == (valuation(index_sq, p) >= 2), (text, p)


# ---------------------------------------------------------------------------
# Newton polygons.


def seg(h, e, length):
    return Segment(Fraction(h, e), length)


def test_newton_polygon_examples():
    assert newton_polygon(IntPoly((-2, 0, 1)), 2) == [seg(1, 2, 2)]
    assert newton_polygon(IntPoly((-4, 0, 1)), 2) == [seg(1, 1, 2)]
    assert newton_polygon(IntPoly((-2, 0, 0, 1)), 2) == [seg(1, 3, 3)]


def test_newton_polygon_multiple_segments():
    # (x - 2)(x - 1) = x^2 - 3x + 2: slopes 1 then 0
    assert newton_polygon(IntPoly((2, -3, 1)), 2) == [seg(1, 1, 1), seg(0, 1, 1)]
    # zero coefficients give no point: x^3 + 4x with the constant term missing
    assert newton_polygon(IntPoly((0, 4, 0, 1)), 2) == [seg(1, 1, 2)]


def test_newton_polygon_slopes_strictly_decreasing():
    for coeffs, p in [((8, 2, 4, 1), 2), ((16, 0, 2, 0, 1), 2), ((27, 9, 3, 1), 3)]:
        segs = newton_polygon(IntPoly(coeffs), p)
        slopes = [s.slope for s in segs]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        assert sum(s.length for s in segs) == len(coeffs) - 1


def test_newton_polygon_rejects_zero_polynomial_and_composite_p():
    with pytest.raises(ValueError):
        newton_polygon(IntPoly((1, 1)), 6)
    with pytest.raises(ValueError):
        newton_polygon(IntPoly.zero(), 2)


# ---------------------------------------------------------------------------
# One-level Newton polygon decomposition.


def test_ore_examples():
    K2 = corpus_field("Q(sqrt2)")
    assert ore_local_decompose(K2, 2).factors == ((2, 1),)
    assert ore_local_decompose(corpus_field("Q(sqrt3)"), 3).factors == ((2, 1),)
    assert ore_local_decompose(K2, 7).factors == ((1, 1), (1, 1))


def test_ore_agrees_with_kummer_on_good_primes():
    for K in corpus_fields():
        for p in primes_up_to(100):
            if not good_prime_test(K, p):
                continue
            assert ore_local_decompose(K, p).factors == kummer_decompose(K, p).factors


def test_ore_wild_totally_ramified():
    # 2 is totally ramified with e = 4 in the biquadratic field
    dec = ore_local_decompose(corpus_field("Q(sqrt2,sqrt3)"), 2)
    assert dec.factors == ((4, 1),)


def test_ore_undetermined_when_residual_inseparable():
    dec = ore_local_decompose(corpus_field("undetermined-at-2"), 2)
    assert not dec.is_resolved
    assert "inseparable" in dec.reason


def _sympy_self_consistent(disc: int, disc_field: int, p: int, ideals) -> bool:
    """Whether sympy's field discriminant and its primes above p can both hold.

    disc(f) / d_K must be a square and d_K must be 0 or 1 mod 4
    (Stickelberger); p ramifies iff p | d_K; and when p divides no e, the
    different gives v_p(d_K) = sum (e - 1) * f.
    """
    index_sq, rest = divmod(disc, disc_field)
    if rest or index_sq < 0 or math.isqrt(index_sq) ** 2 != index_sq or disc_field % 4 > 1:
        return False
    v = valuation(disc_field, p) if disc_field % p == 0 else 0
    if any(P.e > 1 for P in ideals) != (v > 0):
        return False
    return any(P.e % p == 0 for P in ideals) or v == sum((P.e - 1) * P.f for P in ideals)


def test_ore_residuals_over_fq_against_sympy_prime_decomp():
    """The Newton route against sympy 1.14 prime_decomp on phi^k + p^m * g.

    phi is irreducible mod p of degree 2 or 3 and g is nonzero mod p of lower
    degree, so the polygon is one side of slope m/k and, with
    d = gcd(m, k) >= 2 and p not dividing d, the residual polynomial
    y^d + (g mod p) is separable of degree d over F_q, q = p^deg(phi).
    sympy fails on most of these fields and is sometimes wrong, so a field is
    compared only where sympy is self-consistent.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.exceptions import ClosureFailure
    from sympy.polys.numberfields.primes import prime_decomp
    from adelic.exactpoly import is_irreducible_modp

    x = sympy.symbols("x")
    rng = random.Random(11)
    compared = []
    for _ in range(200):
        if len(compared) == 8:
            break
        p = rng.choice([2, 3, 5])
        deg_phi, k = rng.choice([(2, 2), (2, 3), (3, 2)])
        m = rng.choice([m for m in range(2, 9) if math.gcd(m, k) >= 2])
        if math.gcd(m, k) % p == 0:
            continue
        phi = IntPoly([rng.randrange(p) for _ in range(deg_phi)] + [1])
        if not is_irreducible_modp(phi.reduce_mod(p)):
            continue
        g = IntPoly([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(deg_phi - 1)])
        f = phi**k + IntPoly((p**m,)) * g
        T = sympy.Poly(list(reversed(f.coeffs)), x)
        if not T.is_irreducible:
            continue
        dec = ore_local_decompose(NumberField(f), p)
        assert dec.is_resolved and dec.method == "NewtonPolygon", (f.to_text(), p)
        try:
            ZK, disc_field = round_two(T)
            ideals = prime_decomp(p, T=T, ZK=ZK, dK=disc_field)
        except (ArithmeticError, AssertionError, ClosureFailure):
            continue
        if not _sympy_self_consistent(discriminant(f), int(disc_field), p, ideals):
            continue
        assert sorted(dec.factors) == sorted((P.e, P.f) for P in ideals), (f.to_text(), p)
        compared.append((deg_phi, dec.factors))
    assert len(compared) >= 6
    # some residual factors stay irreducible over F_q, some split
    assert any(f > deg_phi for deg_phi, pairs in compared for _, f in pairs)
    assert any(f == deg_phi for deg_phi, pairs in compared for _, f in pairs)


# F_4, F_8, F_9 and F_25 as (phi, p), phi monic irreducible mod p.
FQ_FIELDS = [([1, 1, 1], 2), ([1, 1, 0, 1], 2), ([1, 0, 1], 3), ([3, 0, 1], 5)]


def _fq_elements(phi: list[int], p: int) -> list:
    return [
        splitting._Fq(_trim(list(coeffs)), phi, p)
        for coeffs in itertools.product(range(p), repeat=len(phi) - 1)
    ]


def _schoolbook_mod(a: list[int], b: list[int], phi: list[int], p: int) -> list[int]:
    """a * b reduced mod (phi, p) by the schoolbook product and long division."""
    n = len(phi) - 1
    prod = [0] * (len(a) + len(b) + n)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, n - 1, -1):
        c, prod[k] = prod[k], 0
        for i in range(n):
            prod[k - n + i] -= c * phi[i]
    return _trim([c % p for c in prod[:n]])


def test_fq_element_arithmetic_over_small_fields():
    """_Fq against the schoolbook product on every pair; pow(a, q - 2, q)
    inverts; an int operand is its residue mod p; % q is the identity."""
    for phi, p in FQ_FIELDS:
        q = p ** (len(phi) - 1)
        elements = _fq_elements(phi, p)
        assert len(elements) == q
        one = splitting._Fq([1], phi, p)
        for a in elements:
            for b in elements:
                assert (a * b).c == _schoolbook_mod(a.c, b.c, phi, p), (phi, p, a, b)
                assert (a + b) - b == a and (a - b) + b == a
            assert a % q is a
            assert bool(a) == bool(a.c)
            if a:
                assert pow(a, q - 2, q) * a == one == 1
            # int operands act as their residues mod p
            for n in (-p - 1, -1, 0, 1, 2, p, p + 1, 3 * p + 2):
                r = splitting._Fq(_trim([n % p]), phi, p)
                assert a + n == n + a == a + r
                assert a - n == a - r and n - a == r - a
                assert a * n == n * a == a * r
                assert (a == n) == (a == r)
            assert -a + a == 0


def _residual_of(coeffs: list[list[int]], phi: list[int], p: int):
    """The reason and pairs of _residual_factor_degrees for the one-sided
    polygon whose residual polynomial over F_q is sum coeffs[j] y^j: slope 1,
    a_j = p^(n - j) * coeffs[j] for n = len(coeffs) - 1."""
    n = len(coeffs) - 1
    a_list = [IntPoly([c * p ** (n - j) for c in cs]) for j, cs in enumerate(coeffs)]
    vals = [splitting._gauss_valuation(a, p) for a in a_list]
    pairs = []
    return splitting._residual_factor_degrees(a_list, vals, phi, p, pairs), pairs


def test_inseparable_residuals_over_fq_are_undetermined():
    """(y - a)^2 and y^p - c over F_q stop with the inseparable reason;
    (y - a)(y - b) with a != b splits into two linear factors."""
    for phi, p in FQ_FIELDS:
        elements = _fq_elements(phi, p)
        units = [a for a in elements if a]
        for a in units:
            square = [(a * a).c, (-2 * a).c, [1]]
            reason, _ = _residual_of(square, phi, p)
            assert reason == "inseparable residual polynomial on the slope 1/1 side", (phi, p, a)
            reason, _ = _residual_of([(-a).c] + [[]] * (p - 1) + [[1]], phi, p)
            assert reason == "inseparable residual polynomial on the slope 1/1 side", (phi, p, a)
        a, b = units[0], units[-1]
        reason, pairs = _residual_of([(a * b).c, (-(a + b)).c, [1]], phi, p)
        assert reason is None and pairs == [(1, len(phi) - 1)] * 2


def _fq_has_root(a: list, phi: list[int], p: int) -> bool:
    """Whether the polynomial a over F_q = F_p[x]/(phi) vanishes at some element."""
    for t in _fq_elements(phi, p):
        value = 0
        for c in reversed(a):
            value = value * t + c
        if not value:
            return True
    return False


def _fq_degree_counts(v: list, q: int) -> Counter:
    """Degree -> number of irreducible factors of the squarefree v over F_q,
    by exactpoly's distinct-degree loop with the F_q step of splitting:
    h -> h^q mod v by _powmod with modulus q."""
    v = _monic_modp(v, q)
    parts = _distinct_degree_loop(v, q, lambda h: splitting._powmod(h, q, v, q))
    return Counter({d: (len(g) - 1) // d for d, g in parts})


def test_fq_ddf_counts_products_of_known_irreducibles():
    """The distinct-degree loop with the F_q step on products of distinct
    monic irreducibles of degree 1-3 over F_4, F_8, F_9 and F_25; a monic
    of degree at most 3 is irreducible exactly when it has no root, which is
    checked by trying every element."""
    rng = random.Random(20261019)
    for phi, p in FQ_FIELDS:
        q = p ** (len(phi) - 1)
        one = splitting._Fq([1], phi, p)
        for _ in range(25):
            factors = []
            for d in rng.choices([1, 2, 3], k=rng.randint(1, 3)):
                while True:
                    g = [
                        splitting._Fq(_trim([rng.randrange(p) for _ in phi[1:]]), phi, p)
                        for _ in range(d)
                    ] + [one]
                    if (d == 1 or not _fq_has_root(g, phi, p)) and g not in factors:
                        break
                factors.append(g)
            product = [one]
            for g in factors:
                product = _mul(product, g, q)
            want = Counter(len(g) - 1 for g in factors)
            assert _fq_degree_counts(product, q) == want, (phi, p, factors)


def _as_fq(v: list[int], phi: list[int], p: int) -> list:
    """The ints mod p of v as elements of F_p[x]/(phi) for a linear phi, 0 as int 0."""
    return [splitting._Fq([c], phi, p) if c else 0 for c in v]


def _as_ints(v: list) -> list[int]:
    return [c.c[0] if c else 0 for c in v]


def test_fq_loop_and_powmod_at_q_equal_p_match_the_int_path():
    """Over F_q = F_p[x]/(x - a), q = p, the distinct-degree loop on _Fq
    entries with the list step gives the parts that _distinct_degree_parts
    gives on plain ints, and _powmod over _Fq lists agrees with it over ints."""
    rng = random.Random(20261020)
    for p in (2, 3, 5, 7, 101, 10007):
        phi = [-rng.randrange(p) % p, 1]
        for _ in range(6):
            while True:
                v = [rng.randrange(p) for _ in range(rng.randint(1, 10))] + [1]
                if _is_squarefree_modp(v, p):
                    break
            vq = _as_fq(v, phi, p)
            parts = _distinct_degree_loop(vq, p, lambda h: _powmod(h, p, vq, p))
            assert [(d, _as_ints(g)) for d, g in parts] == list(_distinct_degree_parts(v, p)), (p, v)
            base = [rng.randrange(p) for _ in range(rng.randint(0, 2 * len(v)))]
            wide = [c + p * rng.randint(-2, 2) for c in base]  # an int base is reduced first
            for exp in (0, 1, 2, p - 1, p, rng.randrange(p**3)):
                got = _powmod(_as_fq(_trim(base), phi, p), exp, vq, p)
                assert _as_ints(got) == _powmod(wide, exp, v, p), (p, v, base, exp)


def _count_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends its arguments to calls."""
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)


def test_linear_residual_over_fq_takes_no_frobenius_power(monkeypatch):
    """A residual of degree 1 is irreducible as it stands, so the F_q
    distinct-degree stage computes no power y^q mod v for it."""
    powers = []
    _count_calls(monkeypatch, splitting, "_powmod", powers)
    one = splitting._Fq([1], [1, 1, 1], 2)
    assert _fq_degree_counts([one, one], 4) == {1: 1}
    # two sides of length 1 over F_4, each a linear residual
    phi = P("x^2 + x + 1")
    f = phi * phi + IntPoly((2,)) * phi + IntPoly((0, 2**224))
    assert decompose(NumberField(f), 2).factors == ((1, 2), (1, 2))
    # a step y^q mod v has modulus q = 4; an inverse in F_4 has modulus p = 2
    assert [args for args in powers if args[3] == 4] == []


def test_good_primes_above_the_degree_take_no_gcd(monkeypatch):
    """Above deg f a good prime's degrees come from Frobenius traces and
    Stickelberger's parity: _decompose makes no gcd there, and at degree 2
    it builds no packed kernel."""
    from adelic import exactpoly

    cases = [(K, p) for K in corpus_fields() for p in primes_up_to(200) if p > K.degree and K.poly_disc % p]
    want = [_oracle_kummer(K, p) for K, p in cases]
    gcds, kernels, built = [], [], set()
    _count_calls(monkeypatch, exactpoly, "_gcd_modp", gcds)
    _count_calls(monkeypatch, exactpoly, "_Packed", kernels)
    got = []
    for K, p in cases:
        kernels.clear()
        got.append(splitting._decompose(K, p))
        if kernels:
            built.add(K.degree)
    assert got == want
    assert gcds == []
    assert 2 not in built and built >= set(range(3, 9))


def test_good_primes_at_most_the_degree_keep_the_gcd_route(monkeypatch):
    """At a good p <= deg f a trace is known only mod p, so the
    distinct-degree stage, gcd and all, still counts the degrees, and agrees
    with the oracle: x^8 - 2 at p = 3, 5 and 7, where disc = -2^31."""
    from adelic import exactpoly

    K = corpus_field("Q(eighthroot2)")
    assert K.poly_disc == -(2**31)
    want = {p: _oracle_kummer(K, p) for p in (3, 5, 7)}
    gcds = []
    _count_calls(monkeypatch, exactpoly, "_gcd_modp", gcds)
    for p, dec in want.items():
        gcds.clear()
        assert splitting._decompose(K, p) == dec
        assert gcds, p


def test_decompose_dispatcher():
    K2 = corpus_field("Q(sqrt2)")
    assert decompose(K2, 7).method == "Kummer"
    # 2 divides disc but not the index: extended Kummer applies
    dec2 = decompose(K2, 2)
    assert dec2.method == "Kummer" and dec2.factors == ((2, 1),)
    # 2 divides the index of the classical cubic: Newton polygon route
    ded = decompose(corpus_field("index-divisor-cubic"), 2)
    assert ded.method == "NewtonPolygon"
    assert ded.factors == ((1, 1), (1, 1), (1, 1))


def test_decompose_examples():
    K2 = corpus_field("Q(sqrt2)")
    assert decompose(K2, 7).factors == ((1, 1), (1, 1))
    assert decompose(K2, 2).factors == ((2, 1),)
    assert decompose(K2, 3).factors == ((1, 2),)


def test_decompose_undetermined_reason():
    dec = decompose(corpus_field("undetermined-at-2"), 2)
    assert not dec.is_resolved and dec.reason


def test_decompose_checks_primality_once(monkeypatch):
    from adelic import exactpoly

    # disc(f) = -4 * 503: a good prime, a Dedekind-cleared prime, an index divisor
    K = corpus_field("index-divisor-cubic")
    assert K.poly_disc == -4 * 503
    calls = []
    is_prime = exactpoly.is_prime

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    # every primality check made under decompose, in either module
    monkeypatch.setattr(exactpoly, "is_prime", counting_is_prime)
    monkeypatch.setattr(splitting, "is_prime", counting_is_prime)
    assert [decompose(K, p).method for p in (3, 503, 2)] == ["Kummer", "Kummer", "NewtonPolygon"]
    # one route per prime, so one check each, an index divisor included
    assert calls == [3, 503, 2]
    del calls[:]
    # nothing is cached, so a repeated call checks again
    for p in (3, 503, 2):
        decompose(K, p)
    assert calls == [3, 503, 2]


def test_every_public_route_checks_primality_through_decompose(monkeypatch):
    from adelic import exactpoly

    K = corpus_field("index-divisor-cubic")
    calls = []
    is_prime = exactpoly.is_prime

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(exactpoly, "is_prime", counting_is_prime)
    monkeypatch.setattr(splitting, "is_prime", counting_is_prime)
    assert kummer_decompose(K, 3).factors == decompose(K, 3).factors
    assert ore_local_decompose(K, 2).method == METHOD_NEWTON
    assert dedekind_index_test(K, 2)
    assert not dedekind_index_test(K, 503)
    # one check per call, each made by decompose
    assert calls == [3, 3, 2, 2, 503]
    for route in (decompose, kummer_decompose, ore_local_decompose, dedekind_index_test):
        for n in (1, 6, 9, 503 * 3):
            with pytest.raises(ValueError, match="is not prime"):
                route(K, n)


def test_decompose_depends_only_on_the_polynomial():
    # the label plays no part, and a repeated call or a call to the
    # no-op clear_decomposition_cache between calls changes nothing
    K = NumberField(parse_int_poly("x^3 - 2"), label="one")
    L = NumberField(parse_int_poly("x^3 - 2"), label="two")
    for p in primes_up_to(60):
        first = decompose(K, p)
        clear_decomposition_cache()
        assert decompose(L, p) == first == decompose(K, p), p
    assert decompose(K, 5).factors == ((1, 1), (1, 2))
    assert decompose(K, 3).factors == ((3, 1),)


def test_kummer_good_prime_path_matches_squarefree_part_route():
    from adelic.exactpoly import ddf, squarefree_decomposition

    for K in corpus_fields():
        for p in primes_up_to(400):
            if not good_prime_test(K, p):
                continue
            pairs = sorted(
                (mult, d)
                for part, mult in squarefree_decomposition(K.min_poly.reduce_mod(p))
                for d, count in ddf(part).items()
                for _ in range(count)
            )
            assert sorted(kummer_decompose(K, p).factors) == pairs, (K.name(), p)


def test_decompose_newton_route_resolves_index_divisor():
    # 2 divides the index of the classical cubic, so the Newton-polygon route runs
    K = NumberField(P("x^3 + x^2 - 2*x + 8"))
    dec = decompose(K, 2)
    assert dec.method == "NewtonPolygon"
    assert dec.is_resolved and dec.factors == ((1, 1), (1, 1), (1, 1))


def test_decompose_exact_valuations_far_above_old_precision():
    # phi^2 + 2*phi + 2^224*x with phi = x^2 + x + 1: the phi-adic
    # coefficients have valuations 224, 1, 0, so the polygon has two sides of
    # length 1, each an unramified prime of residue degree deg(phi) = 2.
    phi = P("x^2 + x + 1")
    f = phi * phi + IntPoly((2,)) * phi + IntPoly((0, 2**224))
    dec = decompose(NumberField(f), 2)
    assert dec.is_resolved and dec.method == "NewtonPolygon"
    assert dec.factors == ((1, 2), (1, 2))


def test_ore_undetermined_when_lift_of_repeated_factor_divides():
    # (x^2 + x + 1)(x^2 + x + 3) = (x^2 + x + 1)^2 mod 2 has no rational root,
    # so it is accepted as a field; the constant phi-adic coefficient is 0.
    K = NumberField(P("x^4 + 2*x^3 + 5*x^2 + 4*x + 3"))
    dec = decompose(K, 2)
    assert not dec.is_resolved and dec.method == "NewtonPolygon"
    assert dec.reason == "x^2 + x + 1 divides the defining polynomial, which is reducible"


def test_splitting_type_projection_examples():
    K2 = corpus_field("Q(sqrt2)")
    assert splitting_type(decompose(K2, 7)).degrees == (1, 1)
    assert splitting_type(decompose(K2, 2)).degrees == (1,)


def test_parallel_sweeps_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    K = corpus_field("Q(fourthroot2)")
    primes = list(primes_up_to(100))

    def sweep(_):
        return [decompose(K, p).factors for p in primes]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(sweep, range(8)))
    assert all(r == results[0] for r in results)


def test_splitting_type_of_undetermined_raises():
    dec = decompose(corpus_field("undetermined-at-2"), 2)
    with pytest.raises(UndeterminedError):
        splitting_type(dec)


def test_splitting_type_permutation_invariant():
    d1 = PrimeDecomposition(5, RESOLVED, ((1, 1), (1, 3)), "Kummer")
    d2 = PrimeDecomposition(5, RESOLVED, ((1, 3), (1, 1)), "Kummer")
    assert splitting_type(d1) == splitting_type(d2) == SplittingType((1, 3))


# ---------------------------------------------------------------------------
# Structural invariants over the corpus.


def test_ef_sum_over_corpus():
    for K in corpus_fields():
        for p in primes_up_to(200):
            dec = decompose(K, p)
            if dec.is_resolved:
                assert dec.ef_sum() == K.degree, (K.name(), p)
                assert all(
                    1 <= e <= K.degree and 1 <= f <= K.degree for e, f in dec.factors
                )


def test_good_primes_unramified():
    for K in corpus_fields():
        for p in primes_up_to(100):
            if good_prime_test(K, p):
                assert all(e == 1 for e, _ in decompose(K, p).factors)


def test_corpus_polynomials_irreducible():
    """Every corpus entry of degree >= 2 defines a field (sympy as the oracle)."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for K in corpus_fields():
        if K.degree < 2:
            continue
        expr = sum(c * x**i for i, c in enumerate(K.min_poly.coeffs))
        _, factors = sympy.factor_list(expr)
        assert len(factors) == 1 and factors[0][1] == 1, K.name()


def test_degree_one_field_always_splits_trivially():
    K = corpus_field("Q")
    for p in primes_up_to(200):
        assert decompose(K, p).factors == ((1, 1),)


def test_splitting_types_against_sympy_factorization():
    """Independent sweep: residue degrees from an unrelated factorization engine."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for K in corpus_fields():
        expr = sum(c * x**i for i, c in enumerate(K.min_poly.coeffs))
        for p in primes_up_to(400):
            if not good_prime_test(K, p):
                continue
            fl = sympy.Poly(expr, x, modulus=p).factor_list()[1]
            degrees = sorted(
                d for g, m in fl for d in [sympy.Poly(g, x).degree()] * m
            )
            assert list(splitting_type(decompose(K, p)).degrees) == degrees, (K.name(), p)


def _eisenstein_fields(count: int, seed: int):
    """Fields of degree 2 to 8 from polynomials Eisenstein at a small prime q,
    so irreducible: every lower coefficient a multiple of q, the constant
    term not of q^2."""
    rng = random.Random(seed)
    for _ in range(count):
        n, q = rng.randint(2, 8), rng.choice((2, 3, 5, 7))
        const = q * rng.choice([u for u in range(1, 2 * q) if u % q])
        yield NumberField(IntPoly([const] + [q * rng.randint(-4, 4) for _ in range(n - 1)] + [1]))


def test_sweep_yields_the_splitting_type_of_every_prime():
    """splitting_sweep against decompose prime by prime: the type of each
    prime, None exactly where the decomposition is Undetermined, one object
    per distinct type, and coprime_to skips exactly the primes dividing it."""
    fields = list(corpus_fields()) + list(_eisenstein_fields(40, 32))
    undetermined = 0
    for K in fields:
        swept = list(splitting.splitting_sweep(K, 400))
        assert [p for p, _ in swept] == list(primes_up_to(400)), K.name()
        seen = {}
        for p, t in swept:
            dec = decompose(K, p)
            if not dec.is_resolved:
                assert t is None, (K.name(), p)
                undetermined += 1
                continue
            assert t == splitting_type(dec), (K.name(), p)
            assert seen.setdefault(t.degrees, t) is t, (K.name(), p)
        good = list(splitting.splitting_sweep(K, 400, K.poly_disc))
        assert [p for p, _ in good] == [p for p in primes_up_to(400) if K.poly_disc % p], K.name()
        types = dict(swept)
        assert all(t == types[p] for p, t in good), K.name()
    assert undetermined  # the corpus's undetermined-at-2 field takes the None branch
