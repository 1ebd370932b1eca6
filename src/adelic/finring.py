"""Finite commutative rings with explicit element enumeration, and isomorphism testing.

Elements are integer codes 0..order-1, and every operation is a pure
function of codes, so a ring can be treated as an (implicit) pair of
operation tables.  The main constructions:

* ``ZmodRing(m)`` -- the ring Z/m,
* ``LocalQuotientRing(p, e, f, eisenstein, s)`` -- the quotient O/pi^s of the
  valuation ring of a local field with ramification index e and residue
  degree f; the totally ramified part is presented by a monic Eisenstein
  polynomial (not needed when e == 1).  A code is the mixed-radix number
  whose digits are the element's coefficients; add and neg work digit by
  digit on the code, and a product is one fold of exactpoly's packed
  kernel (``_Packed``); a residue field (s == 1) of order at most
  MAX_LOG_TABLE_ORDER multiplies by discrete-logarithm tables instead,
* ``PermutedRing(base, perm)`` -- the same ring with relabeled elements.

Isomorphism testing has one closure (``_graph``): the subring of R1 x R2
generated by (0, 0), (1, 1) and some seed pairs, refused once it is not the
graph of an injective map; one that covers R1 is a ring isomorphism.  The
search rejects on order and characteristic, then picks generators of R1 and
their images depth first, closing the pairs chosen so far at each step.  A
given map is checked by closing its own pairs.
"""

from __future__ import annotations

from functools import cache, cached_property

from .exactpoly import IntPoly, _Packed, irreducible_modp
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
    "MAX_LOG_TABLE_ORDER",
]

DEFAULT_RING_ORDER_CAP = 2**20

# Largest residue field that multiplies by exp/log tables; fv's stalk cap is
# this bound, so every field stalk does.
MAX_LOG_TABLE_ORDER = 2**12


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
        return self.additive_order(self.one)

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

    def characteristic(self) -> int:
        return self.m

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
    p^(f*s) and characteristic p^ceil(s/e).  add and neg make one pass over
    the (radix m, place w) pairs and build no list: the sum is the sum
    of (a // w + b // w) % m * w, exact because a // w is congruent to the
    digit of a at w modulo m.  A product runs on exactpoly's packed kernel
    for (Z/p^c)[y]/(g)[x]/(E), built on the first product: the digits of
    each factor go to the kernel's slots, one big-int product is folded by
    the kernel (every slot outside the basis reduced mod p^c and folded
    back through its table of x^J y^K mod (g, E)), and each folded basis
    slot is reduced mod its radix back into a code.  That last step is
    exact because pi^s O is the diagonal lattice of the radices
    p^ceil((s-j)/e), an ideal containing p^c.

    When s == 1 the ring is the field F_p[y]/(g) of order q = p^f, and a
    code's base-p digits are its coefficients in y.  A field of order at most
    MAX_LOG_TABLE_ORDER multiplies by table lookup instead: its first product
    builds exp and log tables of a generator of the q - 1 units (2q ints), and
    a*b = exp[(log a + log b) mod (q - 1)] for a, b != 0 (Lidl & Niederreiter,
    Finite Fields, ch. 2).
    """

    def __init__(self, p: int, e: int, f: int, eisenstein: IntPoly | None, s: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1 or f < 1 or s < 1:
            raise ValueError("e, f, s must be positive")
        self.p, self.e, self.f, self.s = p, e, f, s
        self.c = -(-s // e)  # ceil(s/e)
        self.pc = p**self.c
        if eisenstein is None and e > 1:
            raise ValueError("a ramified quotient needs a monic Eisenstein polynomial")
        if eisenstein is not None:
            if eisenstein.degree != e or not eisenstein.is_monic:
                raise ValueError("Eisenstein polynomial must be monic of degree e")
            if not _is_eisenstein_at(eisenstein, p):
                raise ValueError("polynomial is not Eisenstein at p")
        # Unramified, O/pi^s does not depend on the polynomial; it is only checked.
        self.eis = tuple(c % self.pc for c in eisenstein.coeffs) if e > 1 else None
        self.g = [c % self.pc for c in irreducible_modp(p, f).lift().coeffs]
        self.radix = [p ** (-(-(s - j) // e)) for j in range(e) for _ in range(f)]
        place = [1]
        for m in self.radix[:-1]:
            place.append(place[-1] * m)
        # (radix m, place w) of each digit, index 0 lowest.
        self.digits = list(zip(self.radix, place))
        self.order = p ** (f * s)
        self.zero = 0
        self.one = self._encode([1])
        # (exp, log) once built; None until the first product, () for no tables.
        self._tables = None if s == 1 and self.order <= MAX_LOG_TABLE_ORDER else ()

    def _encode(self, coeffs: list[int]) -> int:
        # coeffs may be shorter than e*f; missing entries are zero.
        code = 0
        for c, (m, w) in zip(coeffs, self.digits):
            code += c % m * w
        return code

    def _decode(self, code: int) -> list[int]:
        return [code // w % m for m, w in self.digits]

    def add(self, a, b):
        code = 0
        for m, w in self.digits:
            code += (a // w + b // w) % m * w
        return code

    def neg(self, a):
        code = 0
        for m, w in self.digits:
            code += -(a // w) % m * w
        return code

    def mul(self, a, b):
        tables = self._tables
        if tables is None:
            tables = self._tables = self._log_tables()
        if tables:
            if a and b:
                exp, log = tables
                return exp[(log[a] + log[b]) % len(exp)]
            return 0
        k, slots = self._kernel
        x = y = 0
        for w, m, s in slots:
            x |= a // w % m << s
            y |= b // w % m << s
        acc, mask = k.fold(x * y), k.mask
        code = 0
        for w, m, s in slots:
            code += (acc >> s & mask) % m * w
        return code

    @cached_property
    def _kernel(self) -> tuple[_Packed, list[tuple[int, int, int]]]:
        """The packed kernel, and the (place w, radix m, shift s) of each digit:
        its place in a code and the bit offset of its slot in the kernel."""
        # Unramified, E defaults to x: its degree e = 1 leaves no x-slot to fold.
        k = _Packed(self.g, self.pc, self.eis or (0, 1))
        return k, [(w, m, s) for (m, w), s in zip(self.digits, k.shifts)]

    def _log_tables(self) -> tuple[list[int], list[int]]:
        """exp[i], the code of u^i for i < q - 1, and log, its inverse on the
        units (log[0] is unused), for u the first code whose powers reach all
        q - 1 units.  Powers are walked on exactpoly's _Packed for
        F_p[y]/(g), whose slots are reduced mod p, so a power equals 1 exactly
        when it is packed 1."""
        q, k = self.order, _Packed(self.g, self.p)
        for u in range(1, q):
            x = k.pack(self._decode(u)[: self.f])
            powers, y = [1], x
            while y != 1:
                powers.append(y)
                y = k.mul(y, x)
            if len(powers) == q - 1:
                break
        exp = [self._encode(k.unpack(y)) for y in powers]
        log = [0] * q
        for i, code in enumerate(exp):
            log[code] = i
        return exp, log

    def characteristic(self) -> int:
        return self.pc

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


def _graph(ring1: FiniteRing, ring2: FiniteRing, seeds: list[tuple[int, int]]) -> dict[int, int] | None:
    """The subring of ring1 x ring2 generated by (0, 0), (1, 1) and the seed
    pairs, closed under componentwise add and mul, as a dict; None at the
    first element of ring1 with two images or the first image reached twice.
    A dict is the graph of an injective homomorphism from the subring of
    ring1 that the seeds' first entries generate."""
    add1, add2, mul1, mul2 = ring1.add, ring2.add, ring1.mul, ring2.mul
    graph: dict[int, int] = {}
    reached: set[int] = set()
    pairs: list[tuple[int, int]] = []
    new = [(ring1.zero, ring2.zero), (ring1.one, ring2.one), *seeds]
    i = 0
    while True:
        for x, y in new:
            if x in graph:
                if graph[x] != y:
                    return None
            elif y in reached:
                return None
            else:
                graph[x] = y
                reached.add(y)
                pairs.append((x, y))
        if i == len(pairs):
            return graph
        a, b = pairs[i]
        new = (
            pair
            for c, d in pairs[: i + 1]
            for pair in ((add1(a, c), add2(b, d)), (mul1(a, c), mul2(b, d)))
        )
        i += 1


def _is_isomorphism(ring1: FiniteRing, ring2: FiniteRing, mapping: dict[int, int]) -> bool:
    """True when mapping is a ring isomorphism ring1 -> ring2: a total map,
    keys and values in range, whose own pairs close to mapping itself."""
    codes = set(range(ring1.order))
    if ring2.order != ring1.order or mapping.keys() != codes or not codes.issuperset(mapping.values()):
        return False
    return _graph(ring1, ring2, list(mapping.items())) == mapping


def find_ring_isomorphism(ring1: FiniteRing, ring2: FiniteRing) -> dict[int, int] | None:
    """Explicit isomorphism (code map) between two finite commutative rings, or None.

    A depth-first search that closes the (generator, image) pairs chosen so
    far (see _graph).  A closure that covers ring1 is returned; otherwise the
    least code it has not reached is the next generator, and the unreached
    codes of ring2 with its additive order and idempotency are tried as its
    image in ascending order.  Raises RingCapExceededError, before any work,
    when either order exceeds DEFAULT_RING_ORDER_CAP.
    """
    if ring1.order > DEFAULT_RING_ORDER_CAP or ring2.order > DEFAULT_RING_ORDER_CAP:
        raise RingCapExceededError(f"ring order exceeds the cap {DEFAULT_RING_ORDER_CAP}")
    if ring1.order != ring2.order or ring1.characteristic() != ring2.characteristic():
        return None

    @cache
    def kind(ring: FiniteRing, a: int) -> tuple[int, bool]:
        return ring.additive_order(a), ring.mul(a, a) == a

    def search(seeds: list[tuple[int, int]]) -> dict[int, int] | None:
        graph = _graph(ring1, ring2, seeds)
        if graph is None or len(graph) == ring1.order:
            return graph
        g = next(a for a in ring1.elements() if a not in graph)
        reached = set(graph.values())
        for h in ring2.elements():
            if h not in reached and kind(ring2, h) == kind(ring1, g):
                found = search([*seeds, (g, h)])
                if found is not None:
                    return found
        return None

    return search([])


def finite_ring_isomorphic(ring1: FiniteRing, ring2: FiniteRing) -> bool:
    """Decide isomorphism of two finite commutative rings: whether the
    complete search of find_ring_isomorphism finds one."""
    return find_ring_isomorphism(ring1, ring2) is not None
