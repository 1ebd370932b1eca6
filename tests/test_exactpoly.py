"""Tests for exact integer and modular polynomial arithmetic."""

import random
import time
from fractions import Fraction

import pytest

from adelic.exactpoly import (
    MAX_DEGREE,
    CompositeModulusError,
    DegreeCapError,
    IntPoly,
    ModPoly,
    NonSquarefreeError,
    PolyParseError,
    cz_factor,
    ddf,
    derive_seed,
    discriminant,
    factor_modp,
    gcd_modp,
    irreducible_modp,
    is_irreducible_modp,
    parse_int_poly,
    resultant,
    squarefree_decomposition,
    sturm_real_roots,
)
from adelic.exactpoly import _mul, _trim
from adelic.primes import is_prime, primes_up_to

P = parse_int_poly


# ---------------------------------------------------------------------------
# Independent oracles.


def sylvester_resultant(a: IntPoly, b: IntPoly) -> int:
    """Resultant via the Sylvester matrix determinant (fraction-free Bareiss)."""
    m, n = a.degree, b.degree
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    size = m + n
    if size == 0:
        return 1
    rows = []
    ac = list(reversed(a.coeffs))
    bc = list(reversed(b.coeffs))
    for i in range(n):
        rows.append([0] * i + ac + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + bc + [0] * (m - 1 - i))
    # Bareiss elimination, exact over the integers.
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def _fraction_divmod(a: list[Fraction], b: list[Fraction]):
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        c = r[-1] / b[-1]
        k = len(r) - 1 - db
        q[k] = c
        for j in range(db + 1):
            r[k + j] -= c * b[j]
        while r and r[-1] == 0:
            r.pop()
    return q, r


def fraction_resultant(a: IntPoly, b: IntPoly) -> int:
    """Resultant by the Euclidean recursion over Q, as a slow-path oracle."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    acc = Fraction(1)
    while True:
        da, db = len(fa) - 1, len(fb) - 1
        if db == 0:
            acc *= fb[0] ** da
            break
        _, r = _fraction_divmod(fa, fb)
        if not r:
            return 0
        if (da * db) % 2 == 1:
            acc = -acc
        acc *= fb[-1] ** (da - (len(r) - 1))
        fa, fb = fb, r
    assert acc.denominator == 1
    return int(acc)


def fraction_sturm_real_roots(f: IntPoly) -> int:
    """Distinct real roots from the Sturm chain f, f', -rem, ... over Q, as a
    slow-path oracle; raises NonSquarefreeError like sturm_real_roots."""
    if f.degree == 0:
        return 0
    chain = [[Fraction(c) for c in f.coeffs], [Fraction(c) for c in f.derivative().coeffs]]
    while True:
        _, r = _fraction_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    if len(chain[-1]) > 1:
        raise NonSquarefreeError("not squarefree")
    signs = [(1 if poly[-1] > 0 else -1, len(poly) - 1) for poly in chain]
    at_plus = [s for s, _ in signs]
    at_minus = [s if deg % 2 == 0 else -s for s, deg in signs]

    def variations(v):
        return sum(1 for s1, s2 in zip(v, v[1:]) if s1 != s2)

    return variations(at_minus) - variations(at_plus)


def grid_real_root_count(f: IntPoly, sturm_value: int) -> int:
    """Count distinct real roots by sign changes on a grid, refining until the
    count matches the Sturm value or the grid becomes absurdly fine.

    Sign changes never overcount distinct roots of a squarefree polynomial,
    so a refinement that reaches the claimed count confirms it; exceeding it
    refutes it."""
    bound = 1 + max(abs(c) for c in f.coeffs) // abs(f.coeffs[-1])
    step = Fraction(1, 4)
    while step > Fraction(1, 2**22):
        count = 0
        x = Fraction(-bound)
        last_sign = 0
        while x <= bound:
            v = f.evaluate(x)
            s = (v > 0) - (v < 0)
            if s == 0:
                count += 1  # exact rational root on the grid
                last_sign = 0
            elif last_sign != 0 and s != last_sign:
                count += 1
            if s != 0:
                last_sign = s
            x += step
        if count == sturm_value:
            return count
        if count > sturm_value:
            return count
        step /= 2
    return count


def brute_factor_degrees(f: ModPoly) -> dict[int, int]:
    """Irreducible factor degrees of a squarefree monic polynomial by trial
    division over all monic polynomials of low degree."""
    p = f.modulus
    out: dict[int, int] = {}
    work = f
    d = 1
    while work.degree > 0:
        if 2 * d > work.degree:
            out[work.degree] = out.get(work.degree, 0) + 1
            break
        found = False
        for k in range(p**d):
            coeffs = []
            v = k
            for _ in range(d):
                coeffs.append(v % p)
                v //= p
            cand = ModPoly(p, coeffs + [1])
            q, r = divmod(work, cand)
            if r.is_zero and _brute_irreducible(cand):
                out[d] = out.get(d, 0) + 1
                work = q
                found = True
                break
        if not found:
            d += 1
    return out


def _brute_irreducible(f: ModPoly) -> bool:
    p = f.modulus
    for d in range(1, f.degree // 2 + 1):
        for k in range(p**d):
            coeffs = []
            v = k
            for _ in range(d):
                coeffs.append(v % p)
                v //= p
            cand = ModPoly(p, coeffs + [1])
            if divmod(f, cand)[1].is_zero:
                return False
    return True


# ---------------------------------------------------------------------------
# Construction, parsing, arithmetic.


def test_intpoly_normalizes_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).degree == -1
    assert IntPoly((0,)).is_zero


def test_intpoly_rejects_non_integers():
    with pytest.raises(TypeError):
        IntPoly((1.5, 2))
    with pytest.raises(TypeError):
        IntPoly((True,))


def test_parse_basic():
    assert P("x^7 - 7*x + 3").coeffs == (3, -7, 0, 0, 0, 0, 0, 1)
    assert P("-x + 1").coeffs == (1, -1)
    assert P("2*x^2").coeffs == (0, 0, 2)
    assert P("5").coeffs == (5,)
    assert P("x^2-2").coeffs == (-2, 0, 1)


def test_parse_rejects_bad_input():
    with pytest.raises(PolyParseError):
        P("y + 1")
    with pytest.raises(PolyParseError):
        P("x^-2")
    with pytest.raises(PolyParseError):
        P("1.5*x")
    with pytest.raises(PolyParseError):
        P("")
    with pytest.raises(PolyParseError):
        P("x +")
    # past the 4,300 digits that int() converts: refused at the literal
    with pytest.raises(PolyParseError, match="5000 digits") as info:
        P("x^2 - " + "7" * 5000)
    assert info.value.position == 6
    # integer literals are ASCII: str.isdigit also takes superscripts, which
    # int() refuses, and other scripts' decimal digits, which it converts
    for text, position in (("x^\u00b2+1", 2), ("\u00b2*x+1", 0), ("x^\u0663+1", 2), ("7\u0663", 1)):
        with pytest.raises(PolyParseError, match="unexpected character") as info:
            P(text)
        assert info.value.position == position


def test_text_round_trip():
    rng = random.Random(20240517)
    for _ in range(100):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        f = IntPoly(coeffs)
        assert P(f.to_text()) == f


def test_difference_of_squares():
    assert (P("x+1") * P("x-1")).to_text() == "x^2 - 1"


def test_divmod_monic():
    q, r = P("x^2-2").divmod_monic(P("x"))
    assert q == P("x") and r == P("-2")
    with pytest.raises(ValueError):
        P("x^2").divmod_monic(P("2*x"))


def test_divmod_identity_random():
    rng = random.Random(7)
    for _ in range(200):
        a = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(0, 8))])
        b = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(0, 4))] + [1])
        q, r = a.divmod_monic(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_modpoly_char2_doubling():
    a = ModPoly(2, (0, 1, 1))  # x^2 + x
    assert (a + a).is_zero


def test_modpoly_modulus_mismatch():
    with pytest.raises(ValueError):
        ModPoly(3, (1,)) + ModPoly(5, (1,))


def test_modpoly_nonmonic_division_composite_modulus():
    with pytest.raises(ValueError):
        divmod(ModPoly(4, (1, 0, 1)), ModPoly(4, (1, 2)))
    # prime modulus scales by the inverse of the leading coefficient
    q, r = divmod(ModPoly(5, (-1, 0, 1)), ModPoly(5, (1, 2)))
    assert (q * ModPoly(5, (1, 2)) + r).coeffs == ModPoly(5, (-1, 0, 1)).coeffs


def test_shift():
    f = P("x^3 - x - 1")
    g = f.shift(2)
    assert all(g.evaluate(t) == f.evaluate(t + 2) for t in range(-5, 6))


def test_parse_degree_cap():
    assert P(f"x^{MAX_DEGREE} - 2").degree == MAX_DEGREE
    assert P("x^32*x^32").degree == 64 == MAX_DEGREE
    assert P(f"0*x^{MAX_DEGREE}*x^{MAX_DEGREE}") == IntPoly.zero()
    for text in (f"x^{MAX_DEGREE + 1}", "x^40*x^40", "x*x^64", "3 + 2*x^1000000000", "x^" + "9" * 5000):
        with pytest.raises(DegreeCapError, match="exceeds the cap"):
            P(text)
    assert P("x^" + "0" * 4999 + "3") == P("x^3")
    assert P("x^000") == IntPoly.one()


# ---------------------------------------------------------------------------
# GCD and squarefree decomposition.


def test_gcd_examples():
    assert gcd_modp(ModPoly(5, (-1, 0, 1)), ModPoly(5, (-1, 1))) == ModPoly(5, (-1, 1))
    assert gcd_modp(ModPoly(3, (1, 0, 1)), ModPoly(3, (0, 1))) == ModPoly(3, (1,))
    a = ModPoly(7, (3, 2, 1))
    assert gcd_modp(a, ModPoly(7, ())) == a.monic()


def test_gcd_requires_prime_modulus():
    with pytest.raises(CompositeModulusError):
        gcd_modp(ModPoly(4, (1, 1)), ModPoly(4, (1,)))


def test_gcd_with_derivative_of_random_squarefree():
    rng = random.Random(42)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11, 13])
        while True:
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1]
            f = ModPoly(p, coeffs)
            if gcd_modp(f, f.derivative()).degree == 0:
                break
        # brute-force confirmation: no repeated root in F_p
        roots = [x for x in range(p) if f.evaluate(x) == 0]
        for x in roots:
            q, r = divmod(f, ModPoly(p, (-x, 1)))
            assert r.is_zero
            assert q.evaluate(x) != 0


def test_squarefree_visible_square():
    assert squarefree_decomposition(ModPoly(2, (0, 0, 1))) == [(ModPoly(2, (0, 1)), 2)]


def test_squarefree_constructed():
    f = ModPoly(7, tuple((P("x-1") * P("x-1") * P("x-2")).coeffs))
    parts = squarefree_decomposition(f)
    assert sorted((g.lift().to_text(), m) for g, m in parts) == [
        ("x + 5", 1),
        ("x + 6", 2),
    ]


def test_squarefree_pth_power():
    parts = squarefree_decomposition(ModPoly(3, (0,) * 9 + (1,)))
    assert parts == [(ModPoly(3, (0, 1)), 9)]


def test_squarefree_reexpansion_random():
    rng = random.Random(99)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7])
        # random product of small factors, including characteristic-p powers
        f = ModPoly(p, (1,))
        for _ in range(rng.randint(1, 3)):
            g = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [1])
            f = f * (g if not g.is_zero else ModPoly(p, (1, 1)))
        if rng.random() < 0.3:
            f = f * f * f if p == 3 else f * f
        if f.degree < 1:
            continue
        product = ModPoly(p, (1,))
        for g, mult in squarefree_decomposition(f):
            for _ in range(mult):
                product = product * g
        assert product == f.monic()
        parts = squarefree_decomposition(f)
        for i, (g1, _) in enumerate(parts):
            assert gcd_modp(g1, g1.derivative()).degree == 0
            for g2, _ in parts[i + 1 :]:
                assert gcd_modp(g1, g2).degree == 0


# ---------------------------------------------------------------------------
# Distinct-degree factorization and equal-degree splitting.


def test_ddf_examples():
    assert ddf(ModPoly(7, (-2, 0, 1))) == {1: 2}  # roots 3 and 4
    assert ddf(ModPoly(3, (-2, 0, 1))) == {2: 1}  # no roots mod 3
    assert ddf(ModPoly(5, (0, -1, 0, 1))) == {1: 3}  # roots 0, 1, 4


def test_ddf_rejects_non_squarefree():
    with pytest.raises(NonSquarefreeError):
        ddf(ModPoly(5, (0, 0, 1)))


def test_ddf_root_exhaustion_oracle():
    # the degree-1 count must match the number of roots in F_p
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        f = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1])
        if gcd_modp(f, f.derivative()).degree != 0:
            continue
        counts = ddf(f)
        roots = sum(1 for x in range(p) if f.evaluate(x) == 0)
        assert counts.get(1, 0) == roots


def _random_squarefree(rng, p, degree):
    while True:
        f = ModPoly(p, [rng.randrange(p) for _ in range(degree)] + [1])
        if gcd_modp(f, f.derivative()).degree == 0:
            return f


# Primes of every size the library meets: tiny, word-sized and near 10**18.
DDF_PRIMES = (2, 3, 5, 7, 10007, 10**9 + 7, 10**18 + 3)


def test_ddf_against_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(41)
    cases = [(p, degree) for p in DDF_PRIMES for degree in range(1, 13)]
    # Large degrees, where the packed kernel's slots are widest; sympy takes
    # about 1.2 s of this test's time at degree 64 modulo 10**18 + 3.
    cases += [(p, degree) for p in (2, 10007, 10**18 + 3) for degree in (16, 32, 64)]
    for p, degree in cases:
        f = _random_squarefree(rng, p, degree)
        expr = sum(c * x**i for i, c in enumerate(f.coeffs))
        want: dict[int, int] = {}
        for g, _ in sympy.Poly(expr, x, modulus=p).factor_list()[1]:
            d = sympy.Poly(g, x).degree()
            want[d] = want.get(d, 0) + 1
        assert ddf(f) == want, (p, f)


def reference_divmod_monic(a: list[int], b: list[int], m):
    """Division by a monic b that reduces every coefficient as it changes:
    the schoolbook kernel, kept as the oracle for deferred reduction."""
    r = list(a)
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], _trim(r)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] if m is None else r[i] % m
        if c == 0:
            continue
        q[i - db] = c
        for j in range(db + 1):
            r[i - db + j] -= c * b[j]
            if m is not None:
                r[i - db + j] %= m
    return _trim(q), _trim(r)


def reference_powmod(base: list[int], exp: int, mod: list[int], p: int) -> list[int]:
    """base**exp mod (mod, p) by schoolbook square-and-multiply on coefficient lists."""
    result = [1]
    base = reference_divmod_monic(base, mod, p)[1]
    while exp > 0:
        if exp & 1:
            result = reference_divmod_monic(_mul(result, base, p), mod, p)[1]
        base = reference_divmod_monic(_mul(base, base, p), mod, p)[1]
        exp >>= 1
    return result


def reference_frobenius_rows(f: list[int], p: int) -> list[list[int]]:
    """Rows x^(i*p) mod f for i < deg f, from the schoolbook x^p."""
    xp = reference_powmod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(reference_divmod_monic(_mul(rows[-1], xp, p), f, p)[1])
    return rows


def test_packed_kernel_matches_schoolbook_oracle():
    from adelic.exactpoly import _frobenius, _frobenius_rows, _Packed, _powmod

    def check_product(f, a, b, p):
        k = _Packed(f, p)
        want = reference_divmod_monic(_mul(a, b, p), f, p)[1]
        assert k.unpack(k.mul(k.pack(a), k.pack(b))) == want, (p, f, a, b)
        return k

    # Found by search: here the fold lifts a slot past n*p^2 (to 256 > 245
    # and 624 > 507), so a slot sized for the product alone would carry.
    check_product([3, 2, 5, 6, 1, 1], [6, 6, 6, 6, 4], [6] * 5, 7)
    check_product([3, 2, 1, 1], [12, 12, 11], [12, 10, 7], 13)
    rng = random.Random(47)
    for p in DDF_PRIMES:
        for n in range(1, MAX_DEGREE + 1):
            # All-(p - 1) factors modulo an f whose x^n mod f has every
            # coefficient p - 1, then a random case.
            check_product([1] * (n + 1), [p - 1] * n, [p - 1] * n, p)
            f = [rng.randrange(p) for _ in range(n)] + [1]
            k = check_product(f, *([rng.randrange(p) for _ in range(n)] for _ in "ab"), p)
            # The schoolbook oracle costs O(n^2) per product, so powers and
            # rows are checked at every degree to 12 and at 16, 32 and 64.
            if n > 12 and n not in (16, 32, 64):
                continue
            # An unreduced, partly negative base of any degree below 2n.
            base = [rng.randint(-(p**2), p**2) for _ in range(rng.randint(0, 2 * n))]
            exp = rng.randrange(2 * p)
            assert _powmod(base, exp, f, p) == reference_powmod(base, exp, f, p), (p, f)
            rows = _frobenius_rows(k)
            assert [k.unpack(r) for r in rows] == reference_frobenius_rows(f, p), (p, f)
            for h in (_trim([rng.randrange(p) for _ in range(n)]), [p - 1] * n):
                assert _frobenius(h, rows, k) == reference_powmod(h, p, f, p), (p, f, h)


def reference_lattice_product(a, b, g, eis, m):
    """a * b in (Z/m)[y]/(g)[x]/(E) by schoolbook, for a and b lists of e*f
    coefficients, that of x^j y^k at index j*f + k: the product of the
    double sums, each x-row reduced by g in y, then the rows above e - 1
    reduced by x^e = -(E_0 + ... + E_(e-1) x^(e-1)) from the top."""
    f, e = len(g) - 1, len(eis) - 1
    rows = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            rows[i // f + j // f][i % f + j % f] += u * v
    rows = [reference_divmod_monic(_trim(r), g, m)[1] for r in rows]
    rows = [r + [0] * (f - len(r)) for r in rows]
    for J in range(2 * e - 2, e - 1, -1):
        for i in range(e):
            rows[J - e + i] = [(u - eis[i] * t) % m for u, t in zip(rows[J - e + i], rows[J])]
    return _trim([c for r in rows[:e] for c in r])


def test_packed_kernel_over_an_eisenstein_tower_matches_schoolbook_oracle():
    from adelic.exactpoly import _Packed

    rng = random.Random(59)
    for p, c in ((2, 1), (2, 3), (3, 2), (5, 2), (7, 1), (11, 2), (10007, 2)):
        m = p**c
        for e in (2, 3, 4):
            for f in (1, 2, 3):
                # All-(m - 1) factors modulo g = y^f + ... + 1 and
                # E = x^e + ... + 1, whose first reduction rows are all
                # m - 1, then random moduli and factors.
                cases = [([1] * (f + 1), [1] * (e + 1), [m - 1] * (e * f), [m - 1] * (e * f))]
                for _ in range(4):
                    g = [rng.randrange(m) for _ in range(f)] + [1]
                    eis = [rng.randrange(m) for _ in range(e)] + [1]
                    cases.append((g, eis, *([rng.randrange(m) for _ in range(e * f)] for _ in "ab")))
                for g, eis, a, b in cases:
                    k = _Packed(g, m, eis)
                    got = k.unpack(k.mul(k.pack(a), k.pack(b)))
                    assert got == reference_lattice_product(a, b, g, eis, m), (m, g, eis, a, b)


def test_divmod_monic_defers_reduction_without_changing_results():
    from adelic.exactpoly import _divmod_monic

    rng = random.Random(53)
    for m in (None, 10007, 3**5, 2**64, 10**18 + 3):
        bound = 10**20 if m is None else 3 * m
        for _ in range(300):
            b = [rng.randint(-bound, bound) for _ in range(rng.randint(0, 8))] + [1]
            a = [rng.randint(-bound, bound) for _ in range(rng.randint(0, 18))]
            q, r = _divmod_monic(a, b, m)
            want_q, want_r = reference_divmod_monic(a, b, m)
            if m is None or len(a) < len(b):  # nothing to divide: a comes back as given
                assert (q, r) == (want_q, want_r)
            else:
                assert q == want_q
                assert r == _trim([c % m for c in want_r])


def _per_degree_powmod_parts(v: list[int], p: int):
    """The distinct-degree stage with a fresh x^(p^d) = (x^(p^(d-1)))^p by
    square-and-multiply at every degree, as an independent slow path."""
    from adelic.exactpoly import _divmod_monic, _gcd_modp, _sub

    h = [0, 1]
    d = 0
    while len(v) - 1 > 2 * d:
        d += 1
        h = reference_powmod(h, p, v, p)
        g = _gcd_modp(_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            yield d, g
            v = _divmod_monic(v, g, p)[0]
            h = _divmod_monic(h, v, p)[1]
    if len(v) > 1:
        yield len(v) - 1, v


def test_distinct_degree_parts_match_per_degree_powmod():
    from adelic.exactpoly import _distinct_degree_parts

    rng = random.Random(43)
    for p in DDF_PRIMES:
        for _ in range(40):
            f = list(_random_squarefree(rng, p, rng.randint(1, 12)).coeffs)
            assert list(_distinct_degree_parts(f, p)) == list(_per_degree_powmod_parts(f, p))
    # products of many small factors, where the matrix outlives several splits
    for p in (2, 3, 5):
        f = P("1")
        for g in (P("x"), P("x+1"), P("x^2+x+1"), P("x^3+x+1"), P("x^4+x+1")):
            f = f * g
        f = ModPoly(p, f.coeffs)
        if gcd_modp(f, f.derivative()).degree == 0:
            coeffs = list(f.coeffs)
            assert list(_distinct_degree_parts(coeffs, p)) == list(_per_degree_powmod_parts(coeffs, p))


def test_cz_examples():
    fs = cz_factor(ModPoly(7, (-2, 0, 1)), seed=1)
    assert [g.lift().to_text() for g in fs] == ["x + 3", "x + 4"]  # x-3 = x+4, x-4 = x+3
    fs = cz_factor(ModPoly(3, (1, 0, 1)), seed=5)
    assert fs == [ModPoly(3, (1, 0, 1))]
    fs = cz_factor(ModPoly(5, (-1, 0, 0, 0, 1)), seed=99)
    assert [g.lift().to_text() for g in fs] == ["x + 1", "x + 2", "x + 3", "x + 4"]


def test_cz_deterministic_and_reexpands():
    rng = random.Random(2718)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 13, 31, 97])
        f = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 10))] + [1])
        if gcd_modp(f, f.derivative()).degree != 0:
            continue
        seed = derive_seed(p, f.coeffs)
        fs1 = cz_factor(f, seed)
        fs2 = cz_factor(f, seed)
        assert fs1 == fs2
        product = ModPoly(p, (1,))
        for g in fs1:
            assert g.is_monic
            product = product * g
        assert product == f
        assert all(is_irreducible_modp(g) for g in fs1)


def test_cz_against_brute_force_small():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        f = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1])
        if gcd_modp(f, f.derivative()).degree != 0:
            continue
        got = {}
        for g in cz_factor(f, seed=derive_seed(p, f.coeffs)):
            got[g.degree] = got.get(g.degree, 0) + 1
        assert got == brute_factor_degrees(f)


def test_factor_modp_multiplicities():
    f = ModPoly(5, tuple((P("x-1") ** 2 * P("x^2+2")).coeffs))
    parts = factor_modp(f)
    assert sorted((g.lift().to_text(), m) for g, m in parts) == [
        ("x + 4", 2),
        ("x^2 + 2", 1),
    ]


# ---------------------------------------------------------------------------
# Resultant, discriminant, Sturm.


def test_discriminant_quadratics():
    assert discriminant(P("x^2-2")) == 8
    assert discriminant(P("x^2-3")) == 12
    # quadratic formula check: disc(x^2 + bx + c) = b^2 - 4c
    rng = random.Random(3)
    for _ in range(50):
        b, c = rng.randint(-30, 30), rng.randint(-30, 30)
        assert discriminant(IntPoly((c, b, 1))) == b * b - 4 * c


def test_discriminant_cubic_against_determinant_oracle():
    assert discriminant(P("x^3-x-1")) == -23
    assert sylvester_resultant(P("x^3-x-1"), P("x^3-x-1").derivative()) == 23


def test_resultant_matches_sylvester_oracle_random():
    rng = random.Random(123)
    for _ in range(150):
        a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.choice([1, 2, -1])])
        b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.choice([1, 3, -2])])
        assert resultant(a, b) == sylvester_resultant(a, b)


def test_discriminant_zero_iff_gcd_nonconstant():
    rng = random.Random(321)
    for _ in range(100):
        f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))] + [1])
        disc = discriminant(f)
        try:
            sturm_real_roots(f)
            gcd_constant = True
        except NonSquarefreeError:
            gcd_constant = False
        assert (disc == 0) == (not gcd_constant)


def test_discriminant_errors():
    with pytest.raises(ValueError):
        discriminant(IntPoly(()))
    with pytest.raises(ValueError):
        discriminant(P("2*x^2 - 1"))


def test_sturm_examples():
    assert sturm_real_roots(P("x^2-2")) == 2
    assert sturm_real_roots(P("x^2+1")) == 0
    assert sturm_real_roots(P("x^3-x-1")) == 1


def test_sturm_rejects_non_squarefree():
    with pytest.raises(NonSquarefreeError):
        sturm_real_roots(P("x^2 - 2*x + 1"))


def test_sturm_against_grid_bisection_oracle():
    rng = random.Random(777)
    done = 0
    while done < 200:
        deg = rng.randint(1, 6)
        f = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if discriminant(f) == 0:
            continue
        count = sturm_real_roots(f)
        assert grid_real_root_count(f, count) == count
        done += 1


def _random_int_poly(rng: random.Random, degree: int, monic: bool = False) -> IntPoly:
    lead = 1 if monic else rng.choice([c for c in range(-9, 10) if c])
    return IntPoly([rng.randint(-300, 300) for _ in range(degree)] + [lead])


def test_resultant_matches_fraction_oracle():
    # non-monic inputs, deg b > deg a, common factors and non-primitive inputs
    rng = random.Random(67)
    kinds = {"zero": 0, "common": 0, "swapped": 0}
    for _ in range(1500):
        a = _random_int_poly(rng, rng.randint(0, 8))
        b = _random_int_poly(rng, rng.randint(0, 8))
        if rng.random() < 0.2:
            c = _random_int_poly(rng, rng.randint(1, 3))
            a, b = a * c, b * c
            kinds["common"] += 1
        if rng.random() < 0.2:
            a = a * IntPoly((rng.randint(2, 12),))
        res = resultant(a, b)
        assert res == fraction_resultant(a, b), (a, b)
        kinds["zero"] += res == 0
        kinds["swapped"] += b.degree > a.degree
    assert all(v > 100 for v in kinds.values()), kinds


def _sturm_or_error(fn, f):
    try:
        return fn(f)
    except NonSquarefreeError:
        return "not squarefree"


def test_discriminant_and_sturm_match_fraction_oracle_monic():
    rng = random.Random(68)
    non_squarefree = 0
    for _ in range(1000):
        f = _random_int_poly(rng, rng.randint(1, 9), monic=True)
        if rng.random() < 0.25:
            g = _random_int_poly(rng, rng.randint(1, 3), monic=True)
            f = f * g * g
        n = f.degree
        want = (-1) ** (n * (n - 1) // 2) * fraction_resultant(f, f.derivative()) if n > 1 else 1
        assert discriminant(f) == want, f
        got = _sturm_or_error(sturm_real_roots, f)
        assert got == _sturm_or_error(fraction_sturm_real_roots, f), f
        non_squarefree += got == "not squarefree"
    assert non_squarefree > 100


def test_sturm_matches_fraction_oracle_non_monic():
    rng = random.Random(69)
    for _ in range(1000):
        f = _random_int_poly(rng, rng.randint(0, 9))
        if rng.random() < 0.25:
            g = _random_int_poly(rng, rng.randint(1, 3))
            f = f * g * g
        want = _sturm_or_error(fraction_sturm_real_roots, f)
        assert _sturm_or_error(sturm_real_roots, f) == want, f


def test_sturm_counts_products_of_linear_factors():
    # all roots real: n distinct roots r or r + 1/3 give n, and a repeated one is caught
    rng = random.Random(70)
    for n in range(1, 16):
        factors = [
            IntPoly((-r, 1)) if rng.random() < 0.5 else IntPoly((-3 * r - 1, 3))
            for r in rng.sample(range(-50, 51), n)
        ]
        f = IntPoly((1,))
        for g in factors:
            f = f * g
        assert sturm_real_roots(f) == n
        with pytest.raises(NonSquarefreeError):
            sturm_real_roots(f * factors[0])


def test_resultant_discriminant_count_roots_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(71)
    big = 10**30
    for degree in (10, 15, 20, 25, 30, 35, 40):
        f = IntPoly([rng.randint(-big, big) for _ in range(degree)] + [1])
        g = IntPoly([rng.randint(-big, big) for _ in range(degree - 3)] + [rng.randint(1, big)])
        F = sympy.Poly(list(reversed(f.coeffs)), x)
        G = sympy.Poly(list(reversed(g.coeffs)), x)
        assert resultant(f, g) == F.resultant(G)
        assert resultant(g, f) == G.resultant(F)
        assert discriminant(f) == F.discriminant()
        # sympy's root isolation is slow on dense inputs past degree 20, so
        # the real-root counts there use sparse polynomials
        if degree > 20:
            cs = [rng.randint(1, big)] + [0] * (degree - 1)
            for i in rng.sample(range(1, degree), 2):
                cs[i] = rng.randint(-big, big)
            f = IntPoly(cs + [rng.choice([1, rng.randint(2, big)])])
            F = sympy.Poly(list(reversed(f.coeffs)), x)
        assert sturm_real_roots(f) == F.count_roots()


def test_field_and_signature_at_degree_30_is_fast():
    from adelic.invariants import signature
    from adelic.splitting import NumberField

    rng = random.Random(72)
    f = IntPoly([rng.randint(-(2**100), 2**100) for _ in range(30)] + [1])
    start = time.perf_counter()
    sig = signature(NumberField(f))
    assert time.perf_counter() - start < 1.0
    assert sig.r1 + 2 * sig.r2 == 30


# ---------------------------------------------------------------------------
# Deterministic irreducible polynomials.


def test_irreducible_modp_examples():
    assert irreducible_modp(2, 1) == ModPoly(2, (0, 1))
    assert irreducible_modp(3, 2) == ModPoly(3, (1, 0, 1))
    assert irreducible_modp(2, 2) == ModPoly(2, (1, 1, 1))


def test_irreducible_modp_is_deterministic_and_irreducible():
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3, 4):
            f = irreducible_modp(p, d)
            assert f == irreducible_modp(p, d)
            assert f.degree == d and f.is_monic
            assert is_irreducible_modp(f)
            assert _brute_irreducible(f)


def first_irreducible_by_full_search(p, d):
    """irreducible_modp as it was before it skipped candidates: every
    x^d + sum(c_i x^i) tested in base-p order, c_0 least significant."""
    for k in range(p**d):
        coeffs = [k // p**i % p for i in range(d)]
        cand = ModPoly(p, coeffs + [1])
        if is_irreducible_modp(cand):
            return cand


def test_irreducible_modp_matches_the_full_search():
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, 7):
            assert irreducible_modp(p, d) == first_irreducible_by_full_search(p, d), (p, d)


def test_irreducible_modp_proves_p_prime_once(monkeypatch):
    import adelic.exactpoly as exactpoly

    calls = []
    monkeypatch.setattr(exactpoly, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for p, d in ((7, 3), (2, 8), (13, 4)):
        calls.clear()
        assert irreducible_modp(p, d).degree == d
        assert calls == [p], (p, d)


def test_is_irreducible_modp_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(14)
    cases = []
    for p in (2, 3, 5, 7, 10007):
        for degree in range(1, 9):
            for _ in range(6):
                # leading coefficient anywhere in 1..p-1, so most inputs are not monic
                coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
                cases.append(ModPoly(p, coeffs))
            if degree >= 2:
                g = ModPoly(p, [rng.randrange(p) for _ in range(degree // 2)] + [1])
                h = ModPoly(p, [rng.randrange(p) for _ in range(degree - degree // 2)] + [1])
                cases += [g * g, g * h]
    irreducible = 0
    for f in cases:
        expr = sum(c * x**i for i, c in enumerate(f.coeffs))
        want = sympy.Poly(expr, x, modulus=f.modulus).is_irreducible
        assert is_irreducible_modp(f) == want, f
        irreducible += want
    assert 0 < irreducible < len(cases)


def test_is_prime_against_sieve():
    sieve = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_against_sieve_below_a_million():
    primes = primes_up_to(10**6)
    sieve = bytearray(10**6)
    for p in primes:
        sieve[p] = 1
    assert [n for n in range(10**6) if is_prime(n) != sieve[n]] == []


PSI = (  # psi_1 .. psi_13, OEIS A014233
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def test_is_prime_rejects_psi_1_to_12():
    from adelic.primes import _PSI, PROVEN_PRIMALITY_BOUND

    assert _PSI == PSI and PROVEN_PRIMALITY_BOUND == PSI[-1]
    for psi in PSI[:12]:
        assert not is_prime(psi), psi
    assert is_prime(2039) and is_prime(2053)  # the primes around psi_1


def test_is_prime_rejects_psi12_pseudoprime():
    # psi_12: the least strong pseudoprime to the twelve prime bases 2..37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)


def test_is_prime_refuses_beyond_proven_range():
    from adelic.primes import PROVEN_PRIMALITY_BOUND, PrimalityCapError

    # psi_13 passes every witness 2..41; composites above it can still be shown composite
    with pytest.raises(PrimalityCapError):
        is_prime(PROVEN_PRIMALITY_BOUND)
    with pytest.raises(PrimalityCapError):
        is_prime(2**127 - 1)
    assert not is_prime(PROVEN_PRIMALITY_BOUND * 3)
    assert not is_prime(2**128 + 1)
    assert is_prime(2**61 - 1)


def test_primes_up_to_cache_is_bounded():
    for n in range(100, 140):
        primes_up_to(n)
    info = primes_up_to.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
