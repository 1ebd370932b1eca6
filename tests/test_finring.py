"""Tests for finite commutative rings and isomorphism testing."""

import itertools
import random
import time

import pytest

from adelic import exactpoly, finring
from adelic.exactpoly import IntPoly, _divmod_monic, _mul, irreducible_modp, parse_int_poly
from adelic.finring import (
    LocalQuotientRing,
    PermutedRing,
    RingCapExceededError,
    ZmodRing,
    _is_isomorphism,
    find_ring_isomorphism,
    finite_ring_isomorphic,
)

P = parse_int_poly


def validate_closure(ring):
    """Check that both operation tables stay inside the element set."""
    els = list(ring.elements())
    for a in els:
        for b in els:
            if not (0 <= ring.add(a, b) < ring.order and 0 <= ring.mul(a, b) < ring.order):
                raise AssertionError(f"operation escapes the element set at ({a}, {b})")


def enumerate_ring(ring):
    """Brute-force sanity data: full addition/multiplication closure check and
    ring-axiom spot checks."""
    els = list(ring.elements())
    assert len(els) == ring.order
    validate_closure(ring)
    rng = random.Random(ring.order)
    sample = els if len(els) <= 32 else rng.sample(els, 32)
    for a in sample:
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        for b in sample[:8]:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            for c in sample[:4]:
                assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


def test_zmod_ring():
    z6 = ZmodRing(6)
    enumerate_ring(z6)
    assert z6.characteristic() == 6
    assert z6.additive_order(2) == 3
    assert z6.is_unit(5) and not z6.is_unit(2)


def test_galois_field_ring():
    f4 = LocalQuotientRing(2, 1, 2, None, 1)
    enumerate_ring(f4)
    assert f4.order == 4 and f4.characteristic() == 2
    # every nonzero element is a unit in a field
    assert all(f4.is_unit(a) for a in f4.elements() if a != f4.zero)


def test_unramified_quotient_order_and_characteristic():
    # order p^(f*s), characteristic p^s
    for p, f, s in [(2, 1, 3), (3, 2, 2), (5, 1, 2), (2, 3, 2)]:
        ring = LocalQuotientRing(p, 1, f, None, s)
        assert ring.order == p ** (f * s)
        assert ring.characteristic() == p**s
        enumerate_ring(ring)


def test_characteristic_is_read_not_counted(monkeypatch):
    """characteristic() is the additive order of 1 in every ring, and reading
    it makes no add: the order-999983^2 residue ring is built at once."""
    from adelic.invariants import residue_ring_construct

    for ring in oracle_rings():
        assert ring.characteristic() == ring.additive_order(ring.one), ring
    adds = []
    add = LocalQuotientRing.add

    def counting_add(self, a, b):
        adds.append((a, b))
        return add(self, a, b)

    monkeypatch.setattr(LocalQuotientRing, "add", counting_add)
    r = residue_ring_construct(999983, 2, 1, P("x^2 - 999983"), 2)
    assert r.order == 999983**2 and r.characteristic == 999983
    assert adds == []


def test_eisenstein_quotient_order_and_characteristic():
    # order 4 with characteristic 2: not the ring Z/4
    ring = LocalQuotientRing(2, 2, 1, P("x^2-2"), 2)
    assert ring.order == 4 and ring.characteristic() == 2
    enumerate_ring(ring)
    # uniformizer squares to 2 * unit = 0 at this truncation
    pi = ring.uniformizer()
    assert ring.mul(pi, pi) == ring.zero
    # deeper truncation: order 2^5, characteristic 2^3
    ring5 = LocalQuotientRing(2, 2, 1, P("x^2-2"), 5)
    assert ring5.order == 32 and ring5.characteristic() == 8
    enumerate_ring(ring5)
    pi = ring5.uniformizer()
    two = ring5.add(ring5.one, ring5.one)
    assert ring5.mul(pi, pi) == two  # x^2 = 2 holds in the quotient


def test_eisenstein_quotient_mixed_residue_degree():
    ring = LocalQuotientRing(2, 2, 2, P("x^2-2"), 2)
    assert ring.order == 2 ** (2 * 2)
    assert ring.characteristic() == 2
    enumerate_ring(ring)


def test_eisenstein_validation():
    with pytest.raises(ValueError):
        LocalQuotientRing(2, 2, 1, P("x^2-3"), 2)  # not Eisenstein at 2
    with pytest.raises(ValueError):
        LocalQuotientRing(2, 2, 1, P("x^2-4"), 2)  # constant term divisible by 4
    with pytest.raises(ValueError):
        LocalQuotientRing(2, 2, 1, None, 2)  # ramified shape needs a polynomial
    with pytest.raises(ValueError):
        LocalQuotientRing(2, 2, 1, P("x^3-2"), 2)  # degree mismatch
    # e == 1 needs no polynomial, but one that is given is checked as for e > 1
    for eis in ("x^2+7*x+7", "x+7", "x+25", "2*x+5"):
        with pytest.raises(ValueError):
            LocalQuotientRing(5, 1, 1, P(eis), 2)


def test_unramified_quotient_ignores_a_valid_eisenstein_polynomial():
    ring = LocalQuotientRing(5, 1, 1, P("x+10"), 2)
    plain = LocalQuotientRing(5, 1, 1, None, 2)
    assert ring.describe() == plain.describe() == "O/pi^2 (p=5, e=1, f=1)"
    assert all(ring.mul(a, b) == plain.mul(a, b) for a in range(25) for b in range(25))


def test_permuted_ring_is_isomorphic_presentation():
    rng = random.Random(31)
    base = ZmodRing(8)
    perm = list(range(8))
    rng.shuffle(perm)
    relabeled = PermutedRing(base, perm)
    enumerate_ring(relabeled)
    iso = find_ring_isomorphism(base, relabeled)
    assert iso is not None
    assert iso[base.one] == relabeled.one


# ---------------------------------------------------------------------------
# Isomorphism testing.


def order_four_rings():
    return {
        "Z4": ZmodRing(4),
        "F4": LocalQuotientRing(2, 1, 2, None, 1),
        "F2[t]/t^2": LocalQuotientRing(2, 2, 1, P("x^2-2"), 2),
    }


def test_three_order_four_rings_pairwise_distinct():
    rings = order_four_rings()
    names = list(rings)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not finite_ring_isomorphic(rings[a], rings[b]), (a, b)
    for a in names:
        assert finite_ring_isomorphic(rings[a], rings[a])


def test_isomorphism_reflexive_symmetric_transitive():
    rng = random.Random(77)
    bases = [
        ZmodRing(4),
        ZmodRing(9),
        LocalQuotientRing(2, 1, 2, None, 1),
        LocalQuotientRing(2, 2, 1, P("x^2-2"), 2),
        LocalQuotientRing(3, 1, 1, None, 2),
        LocalQuotientRing(2, 2, 1, P("x^2-2"), 5),
        LocalQuotientRing(2, 2, 1, P("x^2-6"), 5),
        LocalQuotientRing(3, 2, 1, P("x^2-3"), 2),
    ]
    rings = list(bases)
    for base in bases[:4]:
        perm = list(range(base.order))
        rng.shuffle(perm)
        rings.append(PermutedRing(base, perm))
    verdicts = {}
    for i, a in enumerate(rings):
        for j, b in enumerate(rings):
            if i <= j:
                verdicts[i, j] = finite_ring_isomorphic(a, b)
    # reflexive
    assert all(verdicts[i, i] for i in range(len(rings)))
    # symmetric on unordered pairs by construction; check explicitly both ways
    for i in range(len(rings)):
        for j in range(i + 1, len(rings)):
            assert finite_ring_isomorphic(rings[j], rings[i]) == verdicts[i, j]
    # transitive on all triples
    def v(i, j):
        return verdicts[min(i, j), max(i, j)]

    n = len(rings)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if v(i, j) and v(j, k):
                    assert v(i, k), (i, j, k)


def test_relabeled_rings_are_isomorphic():
    rng = random.Random(123)
    for base in (ZmodRing(6), ZmodRing(8), LocalQuotientRing(2, 1, 2, None, 2)):
        perm = list(range(base.order))
        rng.shuffle(perm)
        assert finite_ring_isomorphic(base, PermutedRing(base, perm))


def test_zmod_powers_distinguished():
    assert not finite_ring_isomorphic(ZmodRing(8), LocalQuotientRing(2, 1, 3, None, 1))
    assert not finite_ring_isomorphic(ZmodRing(16), LocalQuotientRing(2, 1, 2, None, 2))
    assert finite_ring_isomorphic(ZmodRing(9), LocalQuotientRing(3, 1, 1, None, 2))


def test_different_ramified_quadratic_completions_separate_at_level_six():
    """The quotients at level 5 of the valuation rings of the two ramified
    quadratic completions generated by roots of x^2-2 and x^2-6 over the
    2-adic numbers happen to be isomorphic; level 6 separates them."""
    r2 = LocalQuotientRing(2, 2, 1, P("x^2-2"), 5)
    r6 = LocalQuotientRing(2, 2, 1, P("x^2-6"), 5)
    assert finite_ring_isomorphic(r2, r6)
    r2 = LocalQuotientRing(2, 2, 1, P("x^2-2"), 6)
    r6 = LocalQuotientRing(2, 2, 1, P("x^2-6"), 6)
    assert not finite_ring_isomorphic(r2, r6)


def test_same_field_different_eisenstein_presentations_isomorphic():
    # x^2 - 2 and x^2 + 4x + 2 generate the same completion at 2
    r1 = LocalQuotientRing(2, 2, 1, P("x^2-2"), 5)
    r2 = LocalQuotientRing(2, 2, 1, P("x^2+4*x+2"), 5)
    assert finite_ring_isomorphic(r1, r2)


def test_cap_enforced():
    with pytest.raises(RingCapExceededError):
        finite_ring_isomorphic(ZmodRing(2**20 + 1), ZmodRing(2**20 + 1))


def test_find_isomorphism_returns_valid_map():
    r1 = LocalQuotientRing(2, 2, 1, P("x^2-2"), 3)
    r2 = LocalQuotientRing(2, 2, 1, P("x^2+4*x+2"), 3)
    iso = find_ring_isomorphism(r1, r2)
    assert iso is not None
    els = list(r1.elements())
    for a in els:
        for b in els:
            assert iso[r1.add(a, b)] == r2.add(iso[a], iso[b])
            assert iso[r1.mul(a, b)] == r2.mul(iso[a], iso[b])
    assert sorted(iso.values()) == list(r2.elements())


# ---------------------------------------------------------------------------
# Slow-path oracle: the element arithmetic as it was before the ring moved to
# flat coefficient lists, with x-coordinates over (Z/p^c)[y]/(g) held as ints
# (f == 1) or tuples of f ints.


class ReferenceLocalQuotientRing:
    def __init__(self, p, e, f, eisenstein, s):
        self.p, self.e, self.f, self.s = p, e, f, s
        self.c = -(-s // e)
        self.pc = p**self.c
        self.eis = tuple(c % self.pc for c in eisenstein.coeffs) if e > 1 else None
        if f > 1:
            g = irreducible_modp(p, f).lift()
            self.unram_mod = tuple(c % self.pc for c in g.coeffs)
        self.coord_pow = tuple(p ** (-(-(s - j) // e)) for j in range(e))
        self.order = p ** (f * s)
        self.one = self._encode(self._scalar_poly(1))

    def _base_zero(self):
        return 0 if self.f == 1 else (0,) * self.f

    def _base_from_int(self, n):
        if self.f == 1:
            return n % self.pc
        return tuple([n % self.pc] + [0] * (self.f - 1))

    def _base_add(self, a, b):
        if self.f == 1:
            return (a + b) % self.pc
        return tuple((x + y) % self.pc for x, y in zip(a, b))

    def _base_neg(self, a):
        if self.f == 1:
            return (-a) % self.pc
        return tuple((-x) % self.pc for x in a)

    def _base_mul(self, a, b):
        if self.f == 1:
            return a * b % self.pc
        out = [0] * (2 * self.f - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        g = self.unram_mod
        for i in range(len(out) - 1, self.f - 1, -1):
            c = out[i] % self.pc
            for j in range(self.f + 1):
                out[i - self.f + j] -= c * g[j]
            out[i] = 0
        return tuple(v % self.pc for v in out[: self.f])

    def _scalar_poly(self, n):
        return [self._base_from_int(n)] + [self._base_zero()] * (self.e - 1)

    def _encode(self, vec):
        code = 0
        for j in range(self.e - 1, -1, -1):
            entry = vec[j]
            coords = (entry,) if self.f == 1 else entry
            for x in reversed(coords):
                code = code * self.coord_pow[j] + x % self.coord_pow[j]
        return code

    def _decode(self, code):
        vec = []
        for j in range(self.e):
            m = self.coord_pow[j]
            coords = []
            for _ in range(self.f):
                coords.append(code % m)
                code //= m
            vec.append(coords[0] if self.f == 1 else tuple(coords))
        return vec

    def add(self, a, b):
        va, vb = self._decode(a), self._decode(b)
        return self._encode([self._base_add(x, y) for x, y in zip(va, vb)])

    def neg(self, a):
        return self._encode([self._base_neg(x) for x in self._decode(a)])

    def mul(self, a, b):
        va, vb = self._decode(a), self._decode(b)
        prod = [self._base_zero()] * (2 * self.e - 1)
        for i, x in enumerate(va):
            for j, y in enumerate(vb):
                prod[i + j] = self._base_add(prod[i + j], self._base_mul(x, y))
        for i in range(len(prod) - 1, self.e - 1, -1):
            c = prod[i]
            for j in range(self.e):
                prod[i - self.e + j] = self._base_add(
                    prod[i - self.e + j],
                    self._base_neg(self._base_mul(c, self._base_from_int(self.eis[j]))),
                )
        return self._encode(prod[: self.e])

    def uniformizer(self):
        if self.e > 1:
            vec = [self._base_zero()] * self.e
            vec[1] = self._base_from_int(1)
            return self._encode(vec)
        return self._encode(self._scalar_poly(self.p))


def seeded_eisenstein(rng, p, e):
    """A monic Eisenstein polynomial of degree e at p: constant term p*u with
    p not dividing u, the other lower coefficients divisible by p."""
    u = rng.randrange(1, p * p)
    while u % p == 0:
        u = rng.randrange(1, p * p)
    return IntPoly([p * u] + [p * rng.randrange(-p, p + 1) for _ in range(e - 1)] + [1])


def oracle_shapes():
    """(p, e, f, E, s) for p <= 7, e <= 4, f <= 3, s <= 6 and order <= 729,
    with a seeded Eisenstein polynomial E for each (p, e) when e > 1."""
    rng = random.Random(2024)
    for p in (2, 3, 5, 7):
        for e in range(1, 5):
            eis = seeded_eisenstein(rng, p, e) if e > 1 else None
            for f in range(1, 4):
                for s in range(1, 7):
                    if p ** (f * s) <= 729:
                        yield p, e, f, eis, s


def test_local_quotient_ring_codes_match_reference_arithmetic():
    shapes = list(oracle_shapes())
    assert len(shapes) == 144
    rng = random.Random(5)
    for p, e, f, eis, s in shapes:
        ring = LocalQuotientRing(p, e, f, eis, s)
        ref = ReferenceLocalQuotientRing(p, e, f, eis, s)
        assert ring.order == ref.order
        assert (ring.one, ring.uniformizer()) == (ref.one, ref.uniformizer())
        els = range(ring.order)
        assert [ring.neg(a) for a in els] == [ref.neg(a) for a in els]
        if ring.order <= 64:
            # both operations are commutative in the reference
            pairs = [(a, b) for a in els for b in range(a + 1)]
        else:
            pairs = [(rng.randrange(ring.order), rng.randrange(ring.order)) for _ in range(250)]
        for a, b in pairs:
            assert ring.add(a, b) == ref.add(a, b), (p, e, f, s, a, b)
            assert ring.mul(a, b) == ref.mul(a, b), (p, e, f, s, a, b)


def padded_block_mul(ring, a, b):
    """The list product: LocalQuotientRing.mul as it was when every x-block,
    the last one too, was padded with f - 1 zeros before the Kronecker
    product, and the result was reduced by g and then by E(z^f)."""
    va, vb = ring._decode(a), ring._decode(b)
    f, pc = ring.f, ring.pc
    # E(z^f), or z^f when unramified: E has scalar coefficients, so reducing
    # the flat list by it reduces each y-coefficient by E(x).
    modulus = [0] * (ring.e * f + 1)
    for j, c in enumerate(ring.eis or (0, 1)):
        modulus[j * f] = c
    w = 2 * f - 1
    gap = [0] * (f - 1)
    sa, sb = ([c for i in range(0, len(v), f) for c in v[i : i + f] + gap] for v in (va, vb))
    wide = _mul(sa, sb, pc)
    prod = []
    for i in range(0, len(wide), w):
        block = _divmod_monic(wide[i : i + w], ring.g, pc)[1]
        prod += block + [0] * (f - len(block))
    return ring._encode(_divmod_monic(prod, modulus, pc)[1])


def test_local_quotient_mul_matches_padding_every_block():
    rings = [r for r in oracle_rings() if isinstance(r, LocalQuotientRing) and r.f > 1]
    rings += [LocalQuotientRing(7, 1, 2, None, 1), LocalQuotientRing(3, 1, 3, None, 1)]
    assert {(r.e, r.f) for r in rings} == {(1, 2), (1, 3), (2, 2)}
    for ring in rings:
        for a in ring.elements():
            for b in ring.elements():
                assert ring.mul(a, b) == padded_block_mul(ring, a, b), (ring.describe(), a, b)


def residue_field_shapes():
    """(p, e, f, E) for every s = 1 ring of order <= 256 over p <= 13: GF(p^f),
    and Eisenstein presentations with e = 2...4 and f = 1, 2."""
    for p in (2, 3, 5, 7, 11, 13):
        for f in range(1, 9):
            if p**f <= 256:
                yield p, 1, f, None
        for e in range(2, 5):
            for f in (1, 2):
                yield p, e, f, IntPoly([p, p] + [0] * (e - 2) + [1])


# Fields of order above 256 up to MAX_LOG_TABLE_ORDER, one of them prime.
LARGE_FIELDS = [(2, 12), (3, 7), (5, 5), (4093, 1)]


def test_log_tables_match_the_list_product_on_small_fields():
    shapes = list(residue_field_shapes())
    assert len(shapes) == 22 + 36
    for p, e, f, eis in shapes:
        ring = LocalQuotientRing(p, e, f, eis, 1)
        # both products are commutative: the table's by construction, the
        # list product's by the reference test above
        for a in ring.elements():
            for b in range(a + 1):
                assert ring.mul(a, b) == padded_block_mul(ring, a, b), (ring.describe(), a, b)
        assert ring._tables, ring.describe()


def test_log_tables_match_the_list_product_on_large_fields():
    rng = random.Random(21)
    for p, f in LARGE_FIELDS:
        ring = LocalQuotientRing(p, 1, f, None, 1)
        q = ring.order
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1000)]
        pairs += [(0, 1), (q - 1, 0), (1, q - 1), (q - 1, q - 1)]
        for a, b in pairs:
            assert ring.mul(a, b) == padded_block_mul(ring, a, b), (ring.describe(), a, b)
        exp, log = ring._tables
        assert sorted(exp) == list(range(1, q))
        assert all(log[exp[i]] == i for i in range(q - 1))


def test_first_product_on_the_largest_fields_is_fast():
    for p, f in LARGE_FIELDS:
        ring = LocalQuotientRing(p, 1, f, None, 1)
        start = time.perf_counter()
        ring.mul(2, 3)
        assert time.perf_counter() - start < 1, ring.describe()


def test_rings_past_the_table_bound_or_not_fields_use_the_packed_fold(monkeypatch):
    def refuse(self):
        raise AssertionError(f"tables built for {self.describe()}")

    monkeypatch.setattr(LocalQuotientRing, "_log_tables", refuse)
    rng = random.Random(13)
    for p, e, f, eis, s in [(2, 1, 13, None, 1), (2, 1, 1, None, 2), (3, 1, 2, None, 2), (5, 2, 1, P("x^2-5"), 2)]:
        ring = LocalQuotientRing(p, e, f, eis, s)
        ref = ReferenceLocalQuotientRing(p, e, f, eis, s)
        pairs = [(rng.randrange(ring.order), rng.randrange(ring.order)) for _ in range(200)]
        assert all(ring.mul(a, b) == ref.mul(a, b) for a, b in pairs), ring.describe()
        assert ring._tables == ()


def quotient_shapes(max_order, min_s=2):
    """(p, e, f, E, s) for every ring with s >= min_s of order <= max_order
    over p <= 13 with e = 1...4 and f = 1...3, with a seeded E when e > 1."""
    rng = random.Random(23)
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(1, 5):
            eis = seeded_eisenstein(rng, p, e) if e > 1 else None
            for f in range(1, 4):
                for s in range(min_s, 21):
                    if p ** (f * s) <= max_order:
                        yield p, e, f, eis, s


def test_packed_fold_matches_the_list_product_on_every_small_ring():
    shapes = list(quotient_shapes(256))
    assert len(shapes) == 84
    for p, e, f, eis, s in shapes:
        ring = LocalQuotientRing(p, e, f, eis, s)
        # both products are commutative (see the tests above)
        for a in ring.elements():
            for b in range(a + 1):
                assert ring.mul(a, b) == padded_block_mul(ring, a, b), (ring.describe(), a, b)


def random_pairs(rng, ring, count):
    """count seeded pairs of codes, and the pairs of the largest code, whose
    digits are all at their maximum, with itself, 0 and 1."""
    q = ring.order
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(count)]
    return pairs + [(q - 1, q - 1), (q - 1, 0), (1, q - 1)]


def test_packed_fold_matches_the_list_product_on_large_rings():
    rng = random.Random(22)
    shapes = [  # order 4096, the fv stalk cap
        (2, 1, 1, None, 12),
        (2, 4, 1, seeded_eisenstein(rng, 2, 4), 12),
        (2, 2, 2, seeded_eisenstein(rng, 2, 2), 6),
        (2, 3, 3, seeded_eisenstein(rng, 2, 3), 4),
        (2, 4, 3, seeded_eisenstein(rng, 2, 4), 4),
        (2, 1, 3, None, 4),
    ]
    # the order-121 pair at p = 11 that adele-iso compares
    shapes += [(11, 2, 1, P("x^2-11"), 2), (11, 2, 1, P("x^2+11*x+33"), 2)]
    # near DEFAULT_RING_ORDER_CAP = 2^20, with wide slots: c = 20, c = 5
    # over nine product slots, and the square of a prime near 2^10
    shapes += [(2, 1, 1, None, 20), (2, 2, 2, seeded_eisenstein(rng, 2, 2), 10), (1021, 1, 1, None, 2)]
    for p, e, f, eis, s in shapes:
        ring = LocalQuotientRing(p, e, f, eis, s)
        assert ring.order in (4096, 121) or 2**19 < ring.order <= 2**20
        for a, b in random_pairs(rng, ring, 400):
            assert ring.mul(a, b) == padded_block_mul(ring, a, b), (ring.describe(), a, b)


def test_no_list_product_is_left_in_the_ring_product(monkeypatch):
    rings = [LocalQuotientRing(*shape) for shape in quotient_shapes(4096)]
    rings.append(LocalQuotientRing(2, 1, 13, None, 1))  # a field past the table bound

    def refuse(*args):
        raise AssertionError("list product called")

    # in finring too, where an import of either name would bind it
    for module in (exactpoly, finring):
        for name in ("_mul", "_divmod_monic"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    rng = random.Random(24)
    for ring in rings:
        for a, b in random_pairs(rng, ring, 20):
            assert 0 <= ring.mul(a, b) < ring.order


# ---------------------------------------------------------------------------
# Additive oracle: add, neg and sub as they were before they worked digit by
# digit on the code, through lists of digits.  The digits are read off by
# repeated division with remainder, not by the library's _decode.


def digit_list(ring, code):
    out = []
    for m in ring.radix:
        code, d = divmod(code, m)
        out.append(d)
    return out


def from_digits(ring, digits):
    code = 0
    for d, m in zip(reversed(digits), reversed(ring.radix)):
        code = code * m + d % m
    return code


def list_add(ring, a, b):
    return from_digits(ring, [x + y for x, y in zip(digit_list(ring, a), digit_list(ring, b))])


def list_neg(ring, a):
    return from_digits(ring, [-x for x in digit_list(ring, a)])


def list_sub(ring, a, b):
    return from_digits(ring, [x - y for x, y in zip(digit_list(ring, a), digit_list(ring, b))])


def test_one_pass_add_neg_sub_match_the_digit_lists_on_every_small_ring():
    shapes = list(quotient_shapes(256, min_s=1))
    assert len(shapes) == 144
    for p, e, f, eis, s in shapes:
        ring = LocalQuotientRing(p, e, f, eis, s)
        els = ring.elements()
        digits = [digit_list(ring, a) for a in els]
        assert [ring.neg(a) for a in els] == [list_neg(ring, a) for a in els], ring.describe()
        for a, da in zip(els, digits):
            sums = [from_digits(ring, [x + y for x, y in zip(da, db)]) for db in digits]
            diffs = [from_digits(ring, [x - y for x, y in zip(da, db)]) for db in digits]
            assert [ring.add(a, b) for b in els] == sums, (ring.describe(), a)
            assert [ring.sub(a, b) for b in els] == diffs, (ring.describe(), a)


def test_one_pass_add_neg_sub_match_the_digit_lists_on_large_rings():
    rng = random.Random(26)
    shapes = [  # order 4096, the fv stalk cap, and a prime field just below it
        (2, 1, 1, None, 12),
        (2, 4, 1, seeded_eisenstein(rng, 2, 4), 12),
        (2, 2, 2, seeded_eisenstein(rng, 2, 2), 6),
        (2, 3, 3, seeded_eisenstein(rng, 2, 3), 4),
        (2, 1, 3, None, 4),
        (2, 1, 12, None, 1),
        (4093, 1, 1, None, 1),
        # near DEFAULT_RING_ORDER_CAP = 2^20, with digits of radices 16 and 8
        (2, 3, 2, seeded_eisenstein(rng, 2, 3), 10),
    ]
    for p, e, f, eis, s in shapes:
        ring = LocalQuotientRing(p, e, f, eis, s)
        assert ring.order in (4096, 4093) or 2**19 < ring.order <= 2**20
        for a, b in random_pairs(rng, ring, 400):
            assert ring.add(a, b) == list_add(ring, a, b), (ring.describe(), a, b)
            assert ring.sub(a, b) == list_sub(ring, a, b), (ring.describe(), a, b)
            assert ring.neg(a) == list_neg(ring, a), (ring.describe(), a)


def test_no_digit_list_is_left_in_the_additive_operations(monkeypatch):
    rings = [LocalQuotientRing(*shape) for shape in quotient_shapes(4096, min_s=1)]

    def refuse(*args):
        raise AssertionError("digit list built")

    monkeypatch.setattr(LocalQuotientRing, "_decode", refuse)
    monkeypatch.setattr(LocalQuotientRing, "_encode", refuse)
    rng = random.Random(27)
    for ring in rings:
        for a, b in random_pairs(rng, ring, 20):
            assert ring.add(a, b) == list_add(ring, a, b)
            assert ring.sub(a, b) == list_sub(ring, a, b)
            assert ring.neg(a) == list_neg(ring, a)


# ---------------------------------------------------------------------------
# Search oracle: the isomorphism search as it was before the graph closure.
# It closes ring1 under add/mul while recording one derivation per element,
# replays the derivations for each assignment of generator images, and then
# checks the full addition and multiplication tables.  Candidate images are
# the codes of ring2 with the generator's additive order and idempotency.


def reference_closure(ring, gens):
    found = [ring.zero]
    if ring.one != ring.zero:
        found.append(ring.one)
    seen = set(found)
    for g in gens:
        if g not in seen:
            seen.add(g)
            found.append(g)
    derivations = []
    i = 0
    while i < len(found):
        for j in range(i + 1):
            for op in ("add", "mul"):
                r = getattr(ring, op)(found[i], found[j])
                if r not in seen:
                    seen.add(r)
                    found.append(r)
                    derivations.append((op, i, j, len(found) - 1))
        i += 1
    return found, derivations


def reference_generating_set(ring):
    gens = []
    closure = set(reference_closure(ring, gens)[0])
    for a in ring.elements():
        if len(closure) == ring.order:
            break
        if a not in closure:
            gens.append(a)
            closure = set(reference_closure(ring, gens)[0])
    return gens


def reference_candidate_images(ring1, ring2, g):
    kind = ring1.additive_order(g), ring1.mul(g, g) == g
    return [h for h in ring2.elements() if (ring2.additive_order(h), ring2.mul(h, h) == h) == kind]


def reference_extend_and_verify(ring1, ring2, gens, gen_images, found, index, derivations):
    image = [0] * len(found)
    image[0] = ring2.zero
    if ring1.one != ring1.zero:
        image[1] = ring2.one
    for g, h in zip(gens, gen_images):
        image[index[g]] = h
    for op, i, j, k in derivations:
        image[k] = getattr(ring2, op)(image[i], image[j])
    if len(set(image)) != len(found):
        return None
    for i in range(len(found)):
        for j in range(i + 1):
            if image[index[ring1.add(found[i], found[j])]] != ring2.add(image[i], image[j]):
                return None
            if image[index[ring1.mul(found[i], found[j])]] != ring2.mul(image[i], image[j]):
                return None
    return {found[i]: image[i] for i in range(len(found))}


def reference_find_ring_isomorphism(ring1, ring2):
    if ring1.order != ring2.order or ring1.characteristic() != ring2.characteristic():
        return None
    gens = reference_generating_set(ring1)
    found, derivations = reference_closure(ring1, gens)
    index = {x: i for i, x in enumerate(found)}
    candidates = [reference_candidate_images(ring1, ring2, g) for g in gens]

    def assign(idx, images):
        if idx == len(gens):
            return reference_extend_and_verify(ring1, ring2, gens, images, found, index, derivations)
        for h in candidates[idx]:
            if h not in images:
                result = assign(idx + 1, images + [h])
                if result is not None:
                    return result
        return None

    return assign(0, [])


def oracle_rings():
    """Zmod, unramified, Eisenstein (f = 1, 2) and relabeled rings of order <= 32."""
    rings = [ZmodRing(m) for m in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32)]
    for p, f, s in [(2, 1, 3), (2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 1, 5), (3, 2, 1), (3, 1, 3), (5, 2, 1)]:
        rings.append(LocalQuotientRing(p, 1, f, None, s))
    for p, e, f, eis, s in [
        (2, 2, 1, "x^2-2", 2),
        (2, 2, 1, "x^2-2", 4),
        (2, 2, 1, "x^2+2*x+2", 4),
        (2, 2, 1, "x^2-2", 5),
        (2, 2, 1, "x^2-6", 5),
        (2, 3, 1, "x^3-2", 3),
        (2, 4, 1, "x^4-2", 4),
        (2, 5, 1, "x^5-2", 5),
        (3, 2, 1, "x^2-3", 2),
        (3, 2, 1, "x^2-3", 3),
        (3, 3, 1, "x^3-3", 3),
        (5, 2, 1, "x^2-5", 2),
        (2, 2, 2, "x^2-2", 2),
        (3, 2, 2, "x^2-3", 1),
    ]:
        rings.append(LocalQuotientRing(p, e, f, P(eis), s))
    # Relabeling can raise the number of generators the greedy choice finds,
    # and so the number of candidate tuples; order-32 rings with a search of
    # over a second (such as F_2[x]/x^5) are left out to keep the test short.
    rng = random.Random(14)
    relabeled = [r for r in rings if r.order <= 16]
    relabeled += [ZmodRing(32), LocalQuotientRing(2, 2, 1, P("x^2-6"), 5)]
    for base in relabeled:
        perm = list(range(base.order))
        rng.shuffle(perm)
        rings.append(PermutedRing(base, perm))
    return rings


def test_find_ring_isomorphism_matches_reference_search():
    rings = oracle_rings()
    pairs = [(a, b) for a in rings for b in rings if a.order == b.order]
    # Two order-121 residue rings at p = 11 like those adele-iso compares.
    r1 = LocalQuotientRing(11, 2, 1, P("x^2-11"), 2)
    r2 = LocalQuotientRing(11, 2, 1, P("x^2+11*x+33"), 2)
    pairs += [(r1, r2), (r2, r1)]
    isomorphic = 0
    for a, b in pairs:
        expected = reference_find_ring_isomorphism(a, b)
        assert find_ring_isomorphism(a, b) == expected, (a, b)
        isomorphic += expected is not None
    assert 0 < isomorphic < len(pairs)


# ---------------------------------------------------------------------------
# Isomorphism oracles: the checks the library made before the graph closure
# became its one isomorphism test.  A witness is accepted when the closure
# from its images of the generators is the witness itself; the full
# addition and multiplication tables decide the same question.  The
# invariant profile rejected non-isomorphic rings before the search.


def reference_is_isomorphism(r1, r2, mapping):
    if set(mapping) != set(r1.elements()) or len(set(mapping.values())) != r1.order:
        return False
    if mapping.get(r1.zero) != r2.zero or mapping.get(r1.one) != r2.one:
        return False
    els = list(r1.elements())
    for a in els:
        for b in els:
            if mapping[r1.add(a, b)] != r2.add(mapping[a], mapping[b]):
                return False
            if mapping[r1.mul(a, b)] != r2.mul(mapping[a], mapping[b]):
                return False
    return True


def reference_invariant_profile(ring):
    """Characteristic, additive orders, idempotent, nilpotent and unit counts."""
    add_orders = {}
    idem = nilp = 0
    for a in ring.elements():
        o = ring.additive_order(a)
        add_orders[o] = add_orders.get(o, 0) + 1
        idem += ring.mul(a, a) == a
        x = a
        for _ in range(ring.order.bit_length()):
            x = ring.mul(x, x)
        nilp += x == ring.zero
    units = sum(1 for a in ring.elements() if ring.is_unit(a))
    add_orders = tuple(sorted(add_orders.items()))
    return (ring.order, ring.characteristic(), add_orders, idem, nilp, units)


def automorphisms(ring):
    gens = reference_generating_set(ring)
    found, derivations = reference_closure(ring, gens)
    index = {x: i for i, x in enumerate(found)}
    candidates = [reference_candidate_images(ring, ring, g) for g in gens]
    maps = (
        reference_extend_and_verify(ring, ring, gens, images, found, index, derivations)
        for images in itertools.product(*candidates)
    )
    return [m for m in maps if m is not None]


def witness_cases(rng, r1):
    """(r2, mapping) pairs: relabelings, automorphisms composed with a
    relabeling, one-entry corruptions and swaps, maps of the wrong size, a
    map of the right size whose first key is not a code of r1, and random
    bijections onto rings of the same order."""
    perm = list(range(r1.order))
    rng.shuffle(perm)
    r2 = PermutedRing(r1, perm)
    relabel = {a: perm[a] for a in r1.elements()}
    yield r2, relabel
    for aut in automorphisms(r1):
        yield r2, {a: perm[aut[a]] for a in r1.elements()}
    a, b = rng.sample(range(r1.order), 2)
    yield r2, {**relabel, a: relabel[b]}
    yield r2, {**relabel, a: relabel[b], b: relabel[a]}
    yield r2, {k: v for k, v in relabel.items() if k != a}
    yield r2, {**relabel, r1.order: 0}
    yield r2, {r1.order: relabel[a], **{k: v for k, v in relabel.items() if k != a}}
    for other in (r1, r2):
        image = list(range(r1.order))
        rng.shuffle(image)
        yield other, dict(zip(r1.elements(), image))


def test_witness_closure_agrees_with_full_table_check():
    rng = random.Random(16)
    rings = [r for r in oracle_rings() if r.order <= 27]
    kinds = {type(r) for r in rings}
    # (ramified, f > 1, s > 1): GF, Unramified, Eisenstein and Eisenstein with f > 1
    kinds |= {(r.e > 1, r.f > 1, r.s > 1) for r in rings if isinstance(r, LocalQuotientRing)}
    assert {ZmodRing, LocalQuotientRing, PermutedRing} <= kinds
    assert {(False, True, False), (False, False, True), (True, False, True), (True, True, True)} <= kinds
    verdicts = []
    for r1 in rings:
        for r2, mapping in witness_cases(rng, r1):
            expected = reference_is_isomorphism(r1, r2, mapping)
            assert _is_isomorphism(r1, r2, mapping) == expected, (r1, r2, mapping)
            verdicts.append(expected)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_differing_invariant_profiles_imply_not_isomorphic():
    rings = oracle_rings() + list(order_four_rings().values())
    profiles = [reference_invariant_profile(r) for r in rings]
    differing = 0
    for i, a in enumerate(rings):
        for j, b in enumerate(rings):
            if a.order == b.order and profiles[i] != profiles[j]:
                assert not finite_ring_isomorphic(a, b), (a, b)
                differing += 1
    assert differing > 100
