"""Finite commutative rings with explicit element enumeration, and isomorphism testing.

Elements are integer codes 0..order-1; each ring class decodes them into its
own internal representation.  Operations are pure functions of codes, so a
ring can be treated as an (implicit) pair of operation tables.  The main
constructions:

* ``ZmodRing(m)`` -- the ring Z/m,
* ``LocalQuotientRing(p, e, f, eisenstein, s)`` -- the quotient O/pi^s of the
  valuation ring of a local field with ramification index e and residue
  degree f; the totally ramified part is presented by a monic Eisenstein
  polynomial (not needed when e == 1).  An element is one flat list of
  coefficients, multiplied with exactpoly's univariate kernel by Kronecker
  substitution,
* ``PermutedRing(base, perm)`` -- the same ring with relabeled elements.

Isomorphism testing rejects fast on order/characteristic/invariant profiles,
then runs a backtracking search mapping a generating set while respecting the
addition and multiplication tables.
"""

from __future__ import annotations

from .exactpoly import IntPoly, _divmod_monic, _mul, irreducible_modp
from .primes import is_prime

__all__ = [
    "FiniteRing",
    "ZmodRing",
    "LocalQuotientRing",
    "PermutedRing",
    "RingCapExceededError",
    "find_ring_isomorphism",
    "finite_ring_isomorphic",
    "DEFAULT_RING_ORDER_CAP",
]

DEFAULT_RING_ORDER_CAP = 2**20


class RingCapExceededError(ValueError):
    """Raised when a ring is too large for the requested operation."""


class FiniteRing:
    """Base interface: codes 0..order-1 with add/mul/neg and distinguished 0, 1."""

    order: int
    zero: int
    one: int

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.order)

    def describe(self) -> str:
        raise NotImplementedError

    def characteristic(self) -> int:
        n = 1
        acc = self.one
        while acc != self.zero:
            acc = self.add(acc, self.one)
            n += 1
        return n

    def additive_order(self, a: int) -> int:
        n = 1
        acc = a
        while acc != self.zero:
            acc = self.add(acc, a)
            n += 1
        return n

    def is_unit(self, a: int) -> bool:
        # In a finite commutative ring every element is a unit or a zero divisor;
        # powers of a unit cycle back to 1.
        seen = set()
        acc = a
        while acc not in seen:
            if acc == self.one:
                return True
            seen.add(acc)
            acc = self.mul(acc, a)
        return False

    def validate_closure(self) -> None:
        """Check that both operation tables stay inside the element set."""
        els = list(self.elements())
        for a in els:
            for b in els:
                if not (0 <= self.add(a, b) < self.order and 0 <= self.mul(a, b) < self.order):
                    raise AssertionError(f"operation escapes the element set at ({a}, {b})")

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


class ZmodRing(FiniteRing):
    """The ring of integers modulo m."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.m = m
        self.order = m
        self.zero = 0
        self.one = 1 % m

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def describe(self) -> str:
        return f"Z/{self.m}"


class LocalQuotientRing(FiniteRing):
    """O/pi^s for the valuation ring O of a local field with invariants (e, f).

    The unramified part is (Z/p^c)[y]/(g) with g a deterministic degree-f
    irreducible lift and c = ceil(s/e); the ramified part adjoins x with a
    monic Eisenstein relation E(x) = 0 of degree e and truncates at x^s.
    An element is one flat list of e*f integers: the coefficient of x^j y^k
    sits at index j*f + k and is taken modulo p^ceil((s-j)/e).  The code is
    that list read as mixed-radix digits, index 0 lowest; this gives order
    p^(f*s) and characteristic p^ceil(s/e).  Multiplication is one exactpoly
    product by Kronecker substitution, then reduction by g and by E.
    """

    def __init__(self, p: int, e: int, f: int, eisenstein: IntPoly | None, s: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1 or f < 1 or s < 1:
            raise ValueError("e, f, s must be positive")
        self.p, self.e, self.f, self.s = p, e, f, s
        self.c = -(-s // e)  # ceil(s/e)
        self.pc = p**self.c
        if e > 1:
            if eisenstein is None:
                raise ValueError("a ramified quotient needs a monic Eisenstein polynomial")
            if eisenstein.degree != e or not eisenstein.is_monic:
                raise ValueError("Eisenstein polynomial must be monic of degree e")
            if not _is_eisenstein_at(eisenstein, p):
                raise ValueError("polynomial is not Eisenstein at p")
            self.eis = tuple(c % self.pc for c in eisenstein.coeffs)
        else:
            self.eis = None
        self.g = [c % self.pc for c in irreducible_modp(p, f).lift().coeffs]
        # E(z^f), or z^f when unramified: E has scalar coefficients, so
        # reducing the flat list by it reduces each y-coefficient by E(x).
        self.modulus = [0] * (e * f + 1)
        for j, c in enumerate(self.eis or (0, 1)):
            self.modulus[j * f] = c
        self.radix = [p ** (-(-(s - j) // e)) for j in range(e) for _ in range(f)]
        self.place = [1]
        for m in self.radix[:-1]:
            self.place.append(self.place[-1] * m)
        self.order = p ** (f * s)
        self.zero = 0
        self.one = self._encode([1])

    def _encode(self, coeffs: list[int]) -> int:
        # coeffs may be shorter than e*f; missing entries are zero.
        code = 0
        for c, m, w in zip(coeffs, self.radix, self.place):
            code += c % m * w
        return code

    def _decode(self, code: int) -> list[int]:
        return [code // w % m for m, w in zip(self.radix, self.place)]

    def add(self, a, b):
        return self._encode([x + y for x, y in zip(self._decode(a), self._decode(b))])

    def neg(self, a):
        return self._encode([-x for x in self._decode(a)])

    def mul(self, a, b):
        va, vb = self._decode(a), self._decode(b)
        f, pc = self.f, self.pc
        if f == 1:
            prod = _mul(va, vb, pc)
        else:
            # At stride 2f-1 the y-products of different x-powers cannot overlap.
            w = 2 * f - 1
            gap = [0] * (f - 1)
            sa, sb = ([c for i in range(0, len(v), f) for c in v[i : i + f] + gap] for v in (va, vb))
            wide = _mul(sa, sb, pc)
            prod = []
            for i in range(0, len(wide), w):
                block = _divmod_monic(wide[i : i + w], self.g, pc)[1]
                prod += block + [0] * (f - len(block))
        return self._encode(_divmod_monic(prod, self.modulus, pc)[1])

    def uniformizer(self) -> int:
        """Code of the uniformizer: x when ramified, p when unramified."""
        return self._encode([0] * self.f + [1] if self.e > 1 else [self.p])

    def describe(self) -> str:
        if self.e == 1 and self.s == 1:
            return f"F_{self.p}^{self.f}" if self.f > 1 else f"F_{self.p}"
        eis = IntPoly(self.eis).to_text() if self.eis is not None else None
        tag = f"O/pi^{self.s} (p={self.p}, e={self.e}, f={self.f}"
        return tag + (f", E={eis})" if eis else ")")


def _is_eisenstein_at(g: IntPoly, p: int) -> bool:
    if not g.is_monic or g.degree < 1:
        return False
    if any(c % p != 0 for c in g.coeffs[:-1]):
        return False
    return g.coeffs[0] % (p * p) != 0


class PermutedRing(FiniteRing):
    """A ring isomorphic to ``base`` with elements relabeled by a permutation.

    perm[i] is the new code of base element i.
    """

    def __init__(self, base: FiniteRing, perm: list[int]):
        if sorted(perm) != list(range(base.order)):
            raise ValueError("perm must be a permutation of the element codes")
        self.base = base
        self.perm = list(perm)
        self.inv = [0] * len(perm)
        for i, v in enumerate(perm):
            self.inv[v] = i
        self.order = base.order
        self.zero = perm[base.zero]
        self.one = perm[base.one]

    def add(self, a, b):
        return self.perm[self.base.add(self.inv[a], self.inv[b])]

    def mul(self, a, b):
        return self.perm[self.base.mul(self.inv[a], self.inv[b])]

    def neg(self, a):
        return self.perm[self.base.neg(self.inv[a])]

    def describe(self) -> str:
        return f"relabeled {self.base.describe()}"


# ---------------------------------------------------------------------------
# Isomorphism testing.


def _invariant_profile(ring: FiniteRing, full: bool) -> tuple:
    """Cheap isomorphism invariants: characteristic, additive orders,
    idempotent and nilpotent counts; unit count only for small rings."""
    char = ring.characteristic()
    add_orders: dict[int, int] = {}
    idem = 0
    nilp = 0
    log2 = ring.order.bit_length()
    for a in ring.elements():
        o = ring.additive_order(a)
        add_orders[o] = add_orders.get(o, 0) + 1
        if ring.mul(a, a) == a:
            idem += 1
        x = a
        for _ in range(log2):
            x = ring.mul(x, x)
        if x == ring.zero:
            nilp += 1
    units = None
    if full:
        units = sum(1 for a in ring.elements() if ring.is_unit(a))
    return (ring.order, char, tuple(sorted(add_orders.items())), idem, nilp, units)


def _generating_set(ring: FiniteRing) -> list[int]:
    """Small generating set (as a unital ring) found greedily."""
    gens: list[int] = []
    closure = set(_closure(ring, gens)[0])
    for a in ring.elements():
        if len(closure) == ring.order:
            break
        if a in closure:
            continue
        gens.append(a)
        closure = set(_closure(ring, gens)[0])
    return gens


def _closure(ring: FiniteRing, gens: list[int]) -> tuple[list[int], list[tuple]]:
    """Closure of {0, 1} + gens under add/mul, with defining derivations.

    Returns the closure in discovery order plus one derivation
    (op, i, j, result) per element first produced by an operation, where i, j
    index earlier elements of the discovery list.  Both operations are
    commutative, so unordered pairs are enumerated once.
    """
    found = [ring.zero]
    if ring.one != ring.zero:
        found.append(ring.one)
    seen = set(found)
    for g in gens:
        if g not in seen:
            seen.add(g)
            found.append(g)
    derivations: list[tuple] = []
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


def _candidate_images(ring1: FiniteRing, ring2: FiniteRing, g: int) -> list[int]:
    o = ring1.additive_order(g)
    idem = ring1.mul(g, g) == g
    out = []
    for h in ring2.elements():
        if ring2.additive_order(h) != o:
            continue
        if (ring2.mul(h, h) == h) != idem:
            continue
        out.append(h)
    return out


def find_ring_isomorphism(
    ring1: FiniteRing, ring2: FiniteRing, cap: int = DEFAULT_RING_ORDER_CAP
) -> dict[int, int] | None:
    """Explicit isomorphism (code map) between two finite commutative rings, or None.

    Backtracking over images of a generating set of ring1; a candidate
    assignment is checked by replaying the closure derivation trace, which
    verifies every addition/multiplication relation discovered while
    generating ring1.
    """
    if ring1.order > cap or ring2.order > cap:
        raise RingCapExceededError(
            f"ring order exceeds the cap {cap}; pass a larger cap explicitly"
        )
    if ring1.order != ring2.order:
        return None
    if ring1.characteristic() != ring2.characteristic():
        return None
    gens = _generating_set(ring1)
    found, derivations = _closure(ring1, gens)
    index = {x: i for i, x in enumerate(found)}
    candidates = [_candidate_images(ring1, ring2, g) for g in gens]

    def assign(idx: int, images: list[int]) -> dict[int, int] | None:
        if idx == len(gens):
            return _extend_and_verify(ring1, ring2, gens, images, found, index, derivations)
        for h in candidates[idx]:
            if h in images:
                continue
            result = assign(idx + 1, images + [h])
            if result is not None:
                return result
        return None

    return assign(0, [])


def _extend_and_verify(
    ring1, ring2, gens, gen_images, found, index, derivations
) -> dict[int, int] | None:
    """Extend generator images along the derivation list, then check the tables.

    index maps each element of ring1 to its position in found.
    """
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
        fi = image[i]
        for j in range(i + 1):
            fj = image[j]
            if image[index[ring1.add(found[i], found[j])]] != ring2.add(fi, fj):
                return None
            if image[index[ring1.mul(found[i], found[j])]] != ring2.mul(fi, fj):
                return None
    return {found[i]: image[i] for i in range(len(found))}


def finite_ring_isomorphic(
    ring1: FiniteRing, ring2: FiniteRing, cap: int = DEFAULT_RING_ORDER_CAP
) -> bool:
    """Decide isomorphism of two finite commutative rings.

    Fast rejection on order, characteristic, additive-order profile,
    idempotent/nilpotent counts and (for small rings) unit-group order,
    then the backtracking generator-mapping search.
    """
    if ring1.order > cap or ring2.order > cap:
        raise RingCapExceededError(
            f"ring order exceeds the cap {cap}; pass a larger cap explicitly"
        )
    if ring1 is ring2:
        return True
    full = ring1.order <= 4096
    if _invariant_profile(ring1, full) != _invariant_profile(ring2, full):
        return False
    return find_ring_isomorphism(ring1, ring2, cap) is not None
