"""Exact polynomial arithmetic over Z and over Z/m for m a prime or prime power.

Polynomials are coefficient sequences with the constant term first, so the
coefficient at index k belongs to x^k.  Trailing zeros are stripped on
construction and modular coefficients are reduced on construction, which makes
structural equality a valid equality test.  All values are immutable and every
operation is a pure function, so values can be shared freely between threads.

Coefficients are plain Python integers (arbitrary precision); no floating
point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .primes import is_prime

__all__ = [
    "IntPoly",
    "ModPoly",
    "PolyParseError",
    "DegreeCapError",
    "MAX_DEGREE",
    "CompositeModulusError",
    "NonSquarefreeError",
    "parse_int_poly",
    "gcd_modp",
    "squarefree_decomposition",
    "ddf",
    "cz_factor",
    "factor_modp",
    "derive_seed",
    "is_irreducible_modp",
    "irreducible_modp",
    "resultant",
    "discriminant",
    "sturm_real_roots",
]


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Largest degree the parser builds; see the README for how it was sized.
MAX_DEGREE = 64


class DegreeCapError(ValueError):
    """Raised when polynomial text asks for a degree above MAX_DEGREE."""


class CompositeModulusError(ValueError):
    """Raised when an operation requiring a prime modulus gets a composite one."""


class NonSquarefreeError(ValueError):
    """Raised when an operation requires a squarefree input polynomial."""


# ---------------------------------------------------------------------------
# Raw coefficient-list helpers.  Lists hold ints, constant term first, with no
# trailing zeros.  These are the working representation inside algorithms;
# IntPoly/ModPoly wrap them at API boundaries.


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _add(a: list[int], b: list[int], m: int | None) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] += y
    if m is not None:
        out = [v % m for v in out]
    return _trim(out)


def _neg(a: list[int], m: int | None) -> list[int]:
    if m is None:
        return [-x for x in a]
    return _trim([(-x) % m for x in a])


def _sub(a: list[int], b: list[int], m: int | None) -> list[int]:
    return _add(a, _neg(b, m), m)


def _mul(a: list[int], b: list[int], m: int | None) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    if m is not None:
        out = [v % m for v in out]
    return _trim(out)


def _divmod_monic(a: list[int], b: list[int], m: int | None) -> tuple[list[int], list[int]]:
    """Quotient and remainder by a monic divisor; exact in any coefficient ring."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if b[-1] != 1:
        raise ValueError("divisor must be monic")
    # A dividend of lower degree comes back as given; otherwise only each
    # leading coefficient is reduced as it is taken, and the remainder at the end.
    r = list(a)
    db = len(b) - 1
    if len(r) <= db:
        return [], _trim(r)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] if m is None else r[i] % m
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] -= c * b[j]
    del r[db:]
    return _trim(q), _trim(r if m is None else [v % m for v in r])


def _monic_modp(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], p - 2, p)
    return _trim([c * inv % p for c in a])


def _gcd_modp(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        b = _monic_modp(b, p)
        a, b = b, _divmod_monic(a, b, p)[1]
    return _monic_modp(a, p)


def _deriv(a: list[int], m: int | None) -> list[int]:
    out = [i * c for i, c in enumerate(a)][1:]
    if m is not None:
        out = [v % m for v in out]
    return _trim(out)


def _monomial_rows(f: list[int], count: int, m: int) -> list[list[int]]:
    """x^k mod f over Z/m for k = n ... n + count - 1, f monic of degree
    n >= 1, each as n coefficients: x^n is -f below its leading term, and
    every row is x times the one before."""
    rows = [[-c % m for c in f[:-1]]] if count else []
    while len(rows) < count:
        row = rows[-1]
        rows.append([(s - row[-1] * c) % m for s, c in zip([0] + row[:-1], f)])
    return rows


class _Packed:
    """Products in (Z/m)[y]/(g)[x]/(E) on packed integers, g monic of degree
    f >= 1 and E monic of degree e >= 1 over Z/m.  E = x, the default, gives
    (Z/m)[y]/(g) with e = 1; with m a prime p that is the F_p[x]/(f) of the
    factoring code, y read as x.

    An element is e*f coefficients, that of x^j y^k at index j*f + k, packed
    into one int with coefficient (j, k) in the w-bit slot j*(2f-1) + k
    (Kronecker substitution; von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4): the slots (J, K) of a product, J <= 2e-2 and K <= 2f-2,
    do not overlap, and for E = x slot k sits at bit k*w.  A product is one
    big-int multiplication; each slot outside the basis (J >= e or K >= f)
    is reduced mod m and folded back through a table of x^J y^K mod (g, E).
    A slot of w bits holds any value up to (2e-1)(2f-1)(m-1)^2: the e*f
    partial products of a slot plus one term from each of the
    (2e-1)(2f-1) - e*f table rows, so no carry crosses a slot.  For E = x
    that is (2f-1)(m-1)^2, which also holds a sum of f products of a
    coefficient and a reduced element, as in _frobenius.
    """

    def __init__(self, g: list[int], m: int, eis: tuple[int, ...] = (0, 1)):
        f, e = len(g) - 1, len(eis) - 1
        stride = 2 * f - 1
        self.n, self.m = e * f, m
        self.w = w = ((2 * e - 1) * stride * (m - 1) ** 2).bit_length()
        self.mask = (1 << w) - 1
        # The bit offset of each basis slot, in coefficient order.
        self.shifts = [(j * stride + k) * w for j in range(e) for k in range(f)]
        self.basis = self.pack([self.mask] * self.n)
        # The reduction table: (shift of slot (J, K), packed x^J y^K mod (g, E)).
        # Below row e an entry is y^K mod g, packed in row 0, moved up to row J.
        ys = _monomial_rows(g, f - 1, m)
        high = [(K * w, self.pack(y)) for K, y in enumerate(ys, f)]
        self.table = [
            (s + J * stride * w, row << J * stride * w) for J in range(e) for s, row in high
        ]
        if e > 1:
            ys = [[int(k == K) for k in range(f)] for K in range(f)] + ys
            self.table += [
                ((J * stride + K) * w, self.pack([x * y % m for x, y in product(xs, ys[K])]))
                for J, xs in enumerate(_monomial_rows(eis, e - 1, m), e)
                for K in range(stride)
            ]

    def pack(self, a: list[int]) -> int:
        """The packed element of the coefficients a, each in [0, 2^w)."""
        v = 0
        for c, s in zip(a, self.shifts):
            v |= c << s
        return v

    def unpack(self, v: int) -> list[int]:
        """Coefficient list of v, every basis slot reduced mod m."""
        mask, m = self.mask, self.m
        return _trim([(v >> s & mask) % m for s in self.shifts])

    def fold(self, c: int) -> int:
        """c, a product of two packed elements, with each slot outside the
        basis reduced mod m and folded back through the table.  The basis
        slots are left unreduced: mul reduces them mod m, and finring's
        LocalQuotientRing each mod its digit's radix."""
        mask, m = self.mask, self.m
        acc = c & self.basis
        for shift, row in self.table:
            top = (c >> shift & mask) % m
            if top:
                acc += top * row
        return acc

    def mul(self, a: int, b: int) -> int:
        """a * b mod (g, E), every basis slot reduced mod m."""
        mask, m = self.mask, self.m
        acc = self.fold(a * b)
        out = 0
        for s in self.shifts:
            out |= (acc >> s & mask) % m << s
        return out

    def pow(self, a: int, exp: int) -> int:
        result = self.pack([1])
        while exp > 0:
            if exp & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            exp >>= 1
        return result


def _powmod(base: list[int], exp: int, mod: list[int], p: int) -> list[int]:
    """base**exp modulo the monic polynomial mod, coefficients mod the prime p."""
    k = _Packed(mod, p)
    return k.unpack(k.pow(k.pack([c % p for c in _divmod_monic(base, mod, p)[1]]), exp))


# ---------------------------------------------------------------------------
# Public wrapper types.


@dataclass(frozen=True, slots=True)
class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients.

    coeffs[k] is the coefficient of x^k; the tuple carries no trailing zeros,
    so the leading coefficient is nonzero unless the polynomial is zero.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        _trim(cs)
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "IntPoly":
        return cls((0,) * power + (coeff,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_add(list(self.coeffs), list(other.coeffs), None))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_sub(list(self.coeffs), list(other.coeffs), None))

    def __neg__(self) -> "IntPoly":
        return IntPoly(_neg(list(self.coeffs), None))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_mul(list(self.coeffs), list(other.coeffs), None))

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod_monic(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient-remainder by a monic divisor: self = q*divisor + r, deg r < deg divisor."""
        q, r = _divmod_monic(list(self.coeffs), list(divisor.coeffs), None)
        return IntPoly(q), IntPoly(r)

    def derivative(self) -> "IntPoly":
        return IntPoly(_deriv(list(self.coeffs), None))

    def evaluate(self, x):
        """Horner evaluation; works for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, c: int) -> "IntPoly":
        """The polynomial f(x + c), by repeated synthetic division."""
        out = list(self.coeffs)
        n = len(out)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                out[j] += c * out[j + 1]
        return IntPoly(out)

    def reduce_mod(self, modulus: int) -> "ModPoly":
        return ModPoly(modulus, self.coeffs)

    # -- text ---------------------------------------------------------

    def to_text(self) -> str:
        """Render in the polynomial grammar, highest power first."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"IntPoly({self.to_text()!r})"


@dataclass(frozen=True, slots=True)
class ModPoly:
    """Polynomial with coefficients reduced modulo a prime or prime power."""

    modulus: int
    coeffs: tuple[int, ...]

    def __init__(self, modulus: int, coeffs=()):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        cs = _trim([int(c) % modulus for c in coeffs])
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check(self, other: "ModPoly") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        return ModPoly(self.modulus, _add(list(self.coeffs), list(other.coeffs), self.modulus))

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        return ModPoly(self.modulus, _sub(list(self.coeffs), list(other.coeffs), self.modulus))

    def __neg__(self) -> "ModPoly":
        return ModPoly(self.modulus, _neg(list(self.coeffs), self.modulus))

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        return ModPoly(self.modulus, _mul(list(self.coeffs), list(other.coeffs), self.modulus))

    def __divmod__(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        """Quotient-remainder.  A non-monic divisor is only allowed for prime modulus."""
        self._check(other)
        m = self.modulus
        if other.is_monic:
            q, r = _divmod_monic(list(self.coeffs), list(other.coeffs), m)
        elif is_prime(m):
            # Divide by the monic multiple b / lc(b), then scale the quotient by 1 / lc(b).
            q, r = _divmod_monic(list(self.coeffs), _monic_modp(list(other.coeffs), m), m)
            q = _mul(q, [pow(other.coeffs[-1], m - 2, m)], m)
        else:
            raise ValueError("division by a non-monic divisor requires a prime modulus")
        return ModPoly(m, q), ModPoly(m, r)

    def __floordiv__(self, other: "ModPoly") -> "ModPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "ModPoly") -> "ModPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "ModPoly":
        return ModPoly(self.modulus, _deriv(list(self.coeffs), self.modulus))

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.modulus
        return acc

    def monic(self) -> "ModPoly":
        """Monic scalar multiple (prime modulus required unless already monic)."""
        if self.is_zero or self.is_monic:
            return self
        _require_prime(self.modulus)
        return ModPoly(self.modulus, _monic_modp(list(self.coeffs), self.modulus))

    def lift(self) -> IntPoly:
        """Integer lift with coefficients in [0, modulus)."""
        return IntPoly(self.coeffs)

    def to_text(self) -> str:
        return f"{self.lift().to_text()} (mod {self.modulus})"

    def __repr__(self) -> str:
        return f"ModPoly({self.modulus}, {self.lift().to_text()!r})"


def _require_prime(m: int) -> None:
    if not is_prime(m):
        raise CompositeModulusError(f"prime modulus required, got {m}")


# ---------------------------------------------------------------------------
# Parsing of the polynomial text grammar: variable x, integer literals,
# operators + - * ^, e.g. "x^7 - 7*x + 3".


def _tokenize_poly(text: str):
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isascii() and ch.isdigit():  # str.isdigit alone also takes '²' and '٣'
            j = i
            while j < len(text) and text[j].isascii() and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalpha():
            if ch != "x":
                raise PolyParseError(f"unknown variable {ch!r}; only x is allowed", i)
            tokens.append(("x", "x", i))
            i += 1
        elif ch == ".":
            raise PolyParseError("non-integer coefficients are not allowed", i)
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_int_poly(text: str) -> IntPoly:
    """Parse polynomial text into an IntPoly.

    Grammar: sums/differences of terms; a term is a product of factors; a
    factor is an integer literal or x with an optional nonnegative ^ power.
    A power or product of degree above MAX_DEGREE raises DegreeCapError
    before anything of that degree is built.
    """
    tokens = _tokenize_poly(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if tok is None:
            raise PolyParseError("unexpected end of input", len(text))
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    def check_degree(degree: int, position: int) -> None:
        if degree > MAX_DEGREE:
            raise DegreeCapError(
                f"degree {degree} exceeds the cap {MAX_DEGREE} (at position {position})"
            )

    def parse_factor() -> IntPoly:
        tok = take()
        if tok[0] == "int":
            try:
                return IntPoly((int(tok[1]),))
            except ValueError:  # past the interpreter's int-conversion digit limit
                raise PolyParseError(
                    f"coefficient literal of {len(tok[1])} digits is too long", tok[2]
                ) from None
        if tok[0] == "x":
            if peek() is not None and peek()[0] == "^":
                take("^")
                etok = take("int")
                # Compare lengths first: int() refuses literals past 4,300 digits.
                digits = etok[1].lstrip("0") or "0"
                if len(digits) > len(str(MAX_DEGREE)):
                    raise DegreeCapError(
                        f"degree of {len(digits)} digits exceeds the cap {MAX_DEGREE} "
                        f"(at position {etok[2]})"
                    )
                check_degree(int(digits), etok[2])
                return IntPoly.monomial(1, int(digits))
            return IntPoly.x()
        raise PolyParseError(f"expected a coefficient or x, found {tok[1]!r}", tok[2])

    def parse_term() -> IntPoly:
        acc = parse_factor()
        while peek() is not None and peek()[0] == "*":
            star = take("*")
            factor = parse_factor()
            check_degree(acc.degree + factor.degree, star[2])
            acc = acc * factor
        return acc

    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    negate = False
    if peek()[0] in ("+", "-"):
        negate = take()[0] == "-"
    result = parse_term()
    if negate:
        result = -result
    while peek() is not None:
        op = take()
        if op[0] not in ("+", "-"):
            raise PolyParseError(f"expected + or -, found {op[1]!r}", op[2])
        term = parse_term()
        result = result + term if op[0] == "+" else result - term
    return result


# ---------------------------------------------------------------------------
# GCD, squarefree decomposition, and factorization over prime fields.


def gcd_modp(a: ModPoly, b: ModPoly) -> ModPoly:
    """Monic greatest common divisor over Z/p; gcd(a, 0) is the monic scaling of a."""
    a._check(b)
    _require_prime(a.modulus)
    return ModPoly(a.modulus, _gcd_modp(list(a.coeffs), list(b.coeffs), a.modulus))


def _pth_root_modp(a: list[int], p: int) -> list[int]:
    # In characteristic p, c**p == c, so the p-th root just picks every p-th coefficient.
    return _trim([a[i] for i in range(0, len(a), p)])


def _monic_input(a: ModPoly, name: str) -> list[int]:
    """Coefficients of a, which must be monic and nonzero over a prime field."""
    _require_prime(a.modulus)
    if a.is_zero or not a.is_monic:
        raise ValueError(f"{name} requires a monic nonzero polynomial")
    return list(a.coeffs)


def _squarefree_parts(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of the monic f over the prime field Z/p, unsorted."""
    out: list[tuple[list[int], int]] = []
    scale = 1
    while len(f) > 1:
        d = _deriv(f, p)
        if not d:
            f = _pth_root_modp(f, p)
            scale *= p
            continue
        g = _gcd_modp(f, d, p)
        w = _divmod_monic(f, g, p)[0]
        i = 1
        while len(w) > 1:
            y = _gcd_modp(w, g, p)
            z = _divmod_monic(w, y, p)[0]
            if len(z) > 1:
                out.append((z, i * scale))
            w = y
            g = _divmod_monic(g, y, p)[0]
            i += 1
        f = g
    return out


def squarefree_decomposition(a: ModPoly) -> list[tuple[ModPoly, int]]:
    """Squarefree decomposition over Z/p: pairwise-coprime parts with multiplicities.

    The product of part**multiplicity equals the input.  Handles vanishing
    derivatives in characteristic p by extracting p-th roots.
    """
    f = _monic_input(a, "squarefree decomposition")
    out = [(ModPoly(a.modulus, z), m) for z, m in _squarefree_parts(f, a.modulus)]
    out.sort(key=lambda t: (t[1], t[0].coeffs))
    return out


def _is_squarefree_modp(a: list[int], p: int) -> bool:
    return len(_gcd_modp(a, _deriv(a, p), p)) == 1


def _frobenius_rows(k: _Packed) -> list[int]:
    """Packed rows x^(i*p) mod f for i < deg f: the matrix of h -> h^p on
    F_p[x]/(f), with k the kernel for (f, p)."""
    xp = k.pow(k.pack([0, 1]), k.m) if k.n > 1 else 0
    rows = [k.pack([1])]
    for _ in range(k.n - 1):
        rows.append(k.mul(rows[-1], xp))
    return rows


def _frobenius(h: list[int], rows: list[int], k: _Packed) -> list[int]:
    """h^p modulo f, as the sum of h_i * rows[i] with rows = _frobenius_rows(k)."""
    return k.unpack(sum(c * row for c, row in zip(h, rows)))


def _distinct_degree_parts(v: list[int], p: int):
    """Yield (d, product of the degree-d irreducible factors) for ascending d.

    v is monic and squarefree over Z/p; degrees with no factor are skipped.
    x^p mod v is computed once; every later power x^(p^d) comes from one
    Frobenius step h -> h^p applied as a matrix.  h stays reduced modulo the
    input v, so the matrix serves unchanged after factors are split off.
    Once v has no factor of degree <= d and degree below 2(d+1), it is
    irreducible.
    """
    k = _Packed(v, p)
    rows = _frobenius_rows(k)
    h = [0, 1]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _frobenius(h, rows, k)
        g = _gcd_modp(_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            yield d, g
            v = _divmod_monic(v, g, p)[0]
    if len(v) > 1:
        yield len(v) - 1, v


def ddf(a: ModPoly) -> dict[int, int]:
    """Distinct-degree factorization: degree d -> number of irreducible factors of degree d.

    Requires a monic squarefree polynomial over a prime field.
    """
    f = _monic_input(a, "ddf")
    if not _is_squarefree_modp(f, a.modulus):
        raise NonSquarefreeError("ddf requires a squarefree polynomial")
    return {d: (len(g) - 1) // d for d, g in _distinct_degree_parts(f, a.modulus)}


class _Lcg:
    """Small deterministic linear congruential generator (64-bit state).

    Used to derandomize equal-degree splitting; identical seeds give identical
    factor output on every platform and run.
    """

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF

    def next(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        return self.state >> 16

    def below(self, n: int) -> int:
        return self.next() % n


def derive_seed(p: int, coeffs: tuple[int, ...]) -> int:
    """Fixed seed derived from (p, coefficient sequence); makes factoring reproducible."""
    h = 0xCBF29CE484222325
    for v in (p, len(coeffs), *coeffs):
        v &= 0xFFFFFFFFFFFFFFFF
        while True:
            h = ((h ^ (v & 0xFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            v >>= 8
            if v == 0:
                break
    return h


def _edf(f: list[int], d: int, p: int, rng: _Lcg) -> list[list[int]]:
    """Equal-degree splitting: f is monic squarefree, all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    k = _Packed(f, p)
    while True:
        a = _trim([rng.below(p) for _ in range(n)])
        if len(a) - 1 < 1:
            continue
        g = _gcd_modp(a, f, p)
        if 1 <= len(g) - 1 < n:
            h = g
        else:
            x = k.pack(a)
            if p == 2:
                # Trace map a + a^2 + ... + a^(2^(d-1)) splits the factors;
                # its d <= n/2 terms stay below a slot's bound 2n - 1.
                t = x
                for _ in range(d - 1):
                    x = k.mul(x, x)
                    t += x
                t = k.unpack(t)
            else:
                t = _sub(k.unpack(k.pow(x, (p**d - 1) // 2)), [1], p)
            h = _gcd_modp(t, f, p)
            if not (1 <= len(h) - 1 < n):
                continue
        rest = _divmod_monic(f, h, p)[0]
        return _edf(h, d, p, rng) + _edf(rest, d, p, rng)


def cz_factor(a: ModPoly, seed: int) -> list[ModPoly]:
    """Complete factorization of a monic squarefree polynomial into monic irreducibles.

    Cantor-Zassenhaus equal-degree splitting on top of the distinct-degree
    stage; deterministic for a given seed, and the factor list is returned in
    the canonical (degree, coefficients) order.
    """
    p = a.modulus
    f = _monic_input(a, "cz_factor")
    if not _is_squarefree_modp(f, p):
        raise NonSquarefreeError("cz_factor requires a squarefree polynomial")
    return [ModPoly(p, c) for c, _ in _factor_modp([(f, 1)], p, seed)]


def _factor_modp(parts: list[tuple[list[int], int]], p: int, seed: int) -> list[tuple[list[int], int]]:
    """(irreducible, multiplicity) pairs of the squarefree parts of a polynomial
    over Z/p, in (degree, coefficients, multiplicity) order.  Each part is split
    with its own generator seeded by seed."""
    out = []
    for part, mult in parts:
        rng = _Lcg(seed)
        out.extend((c, mult) for d, g in _distinct_degree_parts(part, p) for c in _edf(g, d, p, rng))
    out.sort(key=lambda t: (len(t[0]), t[0], t[1]))
    return out


def factor_modp(a: ModPoly, seed: int | None = None) -> list[tuple[ModPoly, int]]:
    """Factor a monic polynomial over Z/p into (irreducible, multiplicity) pairs.

    Composition of squarefree decomposition and equal-degree splitting; the
    seed defaults to the fixed function of (p, coefficients).
    """
    p = a.modulus
    f = _monic_input(a, "factor_modp")
    if seed is None:
        seed = derive_seed(p, a.coeffs)
    return [(ModPoly(p, c), m) for c, m in _factor_modp(_squarefree_parts(f, p), p, seed)]


def _is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility of the monic f of degree >= 1 over the prime field Z/p:
    squarefree, and the distinct-degree stage finds no factor of degree
    below that of f."""
    return _is_squarefree_modp(f, p) and next(_distinct_degree_parts(f, p))[0] == len(f) - 1


def is_irreducible_modp(a: ModPoly) -> bool:
    """Irreducibility over Z/p; False for a polynomial of degree below 1."""
    p = a.modulus
    _require_prime(p)
    return a.degree >= 1 and _is_irreducible(_monic_modp(list(a.coeffs), p), p)


def irreducible_modp(p: int, d: int) -> ModPoly:
    """First monic irreducible of degree d over Z/p in base-p coefficient order.

    Deterministic for fixed (p, d): candidates x^d + sum(c_i x^i) are tried
    with (c_0, ..., c_{d-1}) counting upward in base p, c_0 least significant.
    For d = 1 the first candidate, x, is irreducible and is returned
    untested; for d >= 2 a candidate with c_0 = 0 is divisible by x and is
    skipped untested.  p is proven prime once, not per candidate.
    """
    _require_prime(p)
    if d < 1:
        raise ValueError("degree must be at least 1")
    if d == 1:
        return ModPoly(p, [0, 1])
    for k in range(p**d):
        if k % p == 0:
            continue
        cand = []
        v = k
        for _ in range(d):
            cand.append(v % p)
            v //= p
        cand.append(1)
        if _is_irreducible(cand, p):
            return ModPoly(p, cand)
    raise AssertionError("unreachable: irreducibles of every degree exist")


# ---------------------------------------------------------------------------
# Resultant, discriminant, and Sturm real-root counting (exact over Z).


def _subresultants(a: list[int], b: list[int]):
    """Walk the subresultant remainder sequence of a and b over Z.

    a and b are nonzero with deg a >= deg b.  Each step takes the
    pseudo-remainder lc(b)^(delta+1) * a mod b, delta = deg a - deg b, and
    divides it exactly by beta = g * h^delta; then g <- lc(b) and
    h <- g^delta / h^(delta-1) (Collins 1967; Brown & Traub 1971; Cohen,
    Alg. 3.3.7).  Yields (b, r, delta, beta, h) with r the next member and h
    updated; stops after a member r of degree <= 0.
    """
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        lb = b[-1]
        r = list(a)
        for k in range(delta, -1, -1):
            c = r.pop()
            r = [lb * x for x in r]
            for j in range(len(b) - 1):
                r[k + j] -= c * b[j]
        beta = g * h**delta
        r = [x // beta for x in _trim(r)]
        g = lb
        h = g**delta // h ** (delta - 1) if delta else h
        yield b, r, delta, beta, h
        a, b = b, r


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Resultant of two integer polynomials, exact (subresultant sequence over Z)."""
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    a, b = list(a.coeffs), list(b.coeffs)
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    if len(b) == 1:
        return sign * b[0] ** (len(a) - 1)
    for b, r, delta, _, h in _subresultants(a, b):
        db = len(b) - 1
        if (db + delta) * db % 2:
            sign = -sign
        if not r:
            return 0
    return sign * (r[0] ** db // h ** (db - 1))


def discriminant(f: IntPoly) -> int:
    """Discriminant of a monic integer polynomial: (-1)^(n(n-1)/2) * res(f, f')."""
    if f.is_zero:
        raise ValueError("discriminant of the zero polynomial is undefined")
    if not f.is_monic or f.degree < 1:
        raise ValueError("discriminant requires a monic polynomial of degree >= 1")
    n = f.degree
    if n == 1:
        return 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_variations(signs: list[int]) -> int:
    return sum(s1 != s2 for s1, s2 in zip(signs, signs[1:]))


def sturm_real_roots(f: IntPoly) -> int:
    """Number of distinct real roots of a squarefree integer polynomial.

    Sign-variation difference of the Sturm sequence at -infinity and
    +infinity.  The Sturm members are the subresultant members of f and f'
    times factors c_i of known sign, c_0 = c_1 = 1 and
    sign(c_{i+1}) = -sign(c_{i-1}) * sign(beta) * sign(lc b)^(delta+1),
    so only signs are tracked.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return 0
    a, b = list(f.coeffs), _deriv(list(f.coeffs), None)
    # (degree, sign of the leading coefficient) of each Sturm member.
    members = [(len(a) - 1, _sign(a[-1])), (len(b) - 1, _sign(b[-1]))]
    c_prev, c = 1, 1
    for b, r, delta, beta, _ in _subresultants(a, b):
        if not r:
            raise NonSquarefreeError("Sturm counting requires a squarefree polynomial")
        c_prev, c = c, -c_prev * _sign(beta) * _sign(b[-1]) ** (delta + 1)
        members.append((len(r) - 1, c * _sign(r[-1])))
    at_minus = [s * (-1) ** deg for deg, s in members]
    return _sign_variations(at_minus) - _sign_variations([s for _, s in members])
