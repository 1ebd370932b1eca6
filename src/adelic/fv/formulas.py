"""Syntax trees and parsing for ring formulas and Boolean-side formulas.

Two first-order languages share one concrete ASCII syntax:

* ring formulas over {+, -, *, 0, 1, =} with free variables w0, w1, ... and
  quantified variables named y or z (optionally suffixed with digits), e.g.
  ``exists y (y*y = w0)``; indices and suffixes are ASCII digits;
* Boolean-side formulas over the powerset algebra, with variables v0, v1, ...
  and atoms ``v0 = v1``, ``v0 sub v1``, ``Fin(v0)``, ``v0 = 0``, ``v0 = 1``.

Connectives are ``not``, ``and``, ``or``, ``->`` (implication, right
associative, lowest precedence); quantifiers are ``exists``/``forall`` and
take the largest formula to their right.  The binary operators of both
languages, with their precedence and associativity, are one table that the
parser climbs and the printer renders from.  Parse errors, including a y/z
name used outside every quantifier that binds it, carry line and column.  A
formula of more than MAX_FORMULA_TOKENS tokens is refused before parsing, so
that no recursive walk of a tree nears the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FormulaSyntaxError",
    "FormulaCapError",
    "MAX_FORMULA_TOKENS",
    "RingTerm",
    "RVar",
    "RBound",
    "RConst",
    "RAdd",
    "RSub",
    "RMul",
    "Formula",
    "REq",
    "BVar",
    "BEq",
    "BSub",
    "BFin",
    "BConst",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "parse_ring_formula",
    "parse_boole_formula",
    "formula_to_text",
    "ring_free_vars",
    "boole_free_vars",
    "ring_arity",
    "boole_arity",
    "quantifier_depth",
]


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries line and column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class FormulaCapError(ValueError):
    """Formula text longer than MAX_FORMULA_TOKENS tokens."""


# Every walk of a tree (parser, free variables, quantifier depth, printing,
# evaluation) recurses at most twice per token.  The parser is the deepest:
# each '(' costs parse_unary and parse_binary when read as a formula, or
# parse_term_primary and parse_binary when read as a term, whether or not
# the text closes it.  150 tokens keep every walk near 300 frames, below the
# default recursion limit of 1000.
MAX_FORMULA_TOKENS = 150


# -- syntax tree nodes ------------------------------------------------------


class RingTerm:
    pass


@dataclass(frozen=True, slots=True)
class RVar(RingTerm):
    """Free ring variable w<index>."""

    index: int


@dataclass(frozen=True, slots=True)
class RBound(RingTerm):
    """Quantified ring variable, identified by name."""

    name: str


@dataclass(frozen=True, slots=True)
class RConst(RingTerm):
    """The ring constant 0 or 1."""

    value: int


@dataclass(frozen=True, slots=True)
class RAdd(RingTerm):
    left: RingTerm
    right: RingTerm


@dataclass(frozen=True, slots=True)
class RSub(RingTerm):
    left: RingTerm
    right: RingTerm


@dataclass(frozen=True, slots=True)
class RMul(RingTerm):
    left: RingTerm
    right: RingTerm


class Formula:
    pass


@dataclass(frozen=True, slots=True)
class REq(Formula):
    """Ring atom: term = term."""

    left: RingTerm
    right: RingTerm


@dataclass(frozen=True, slots=True)
class BVar:
    """Boolean-side variable v<index>."""

    index: int


@dataclass(frozen=True, slots=True)
class BEq(Formula):
    """Boolean atom: v_i = v_j."""

    left: BVar
    right: BVar


@dataclass(frozen=True, slots=True)
class BSub(Formula):
    """Boolean atom: v_i sub v_j (subset)."""

    left: BVar
    right: BVar


@dataclass(frozen=True, slots=True)
class BFin(Formula):
    """Boolean atom: Fin(v_i)."""

    var: BVar


@dataclass(frozen=True, slots=True)
class BConst(Formula):
    """Boolean atom: v_i = 0 or v_i = 1 (bottom/top of the algebra)."""

    var: BVar
    value: int


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True)
class Forall(Formula):
    var: str
    body: Formula


# -- tokenizer --------------------------------------------------------------

_KEYWORDS = {"exists", "forall", "and", "or", "not", "sub", "Fin"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    offset: int  # of the first character in the formula text


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of text[offset]; only '\\n' starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if len(tokens) == MAX_FORMULA_TOKENS:
            line, column = _line_column(text, i)
            raise FormulaCapError(
                f"formula length exceeds the cap of {MAX_FORMULA_TOKENS} tokens "
                f"(line {line}, column {column})"
            )
        j = i + 1
        if text.startswith("->", i):
            kind, j = "->", i + 2
        elif ch in "()=+-*":
            kind = ch
        elif ch.isdigit():
            while j < len(text) and text[j].isdigit():
                j += 1
            kind = "int"
        elif ch.isalpha():
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "kw" if text[i:j] in _KEYWORDS else "name"
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", *_line_column(text, i))
        tokens.append(_Token(kind, text[i:j], i))
        i = j
    return tokens


def _is_index(text: str) -> bool:
    """Whether text is a nonempty run of ASCII digits: names take no other
    script's digits, which int() would read as the same index."""
    return text.isascii() and text.isdigit()


def _is_ring_var(name: str) -> bool:
    return name.startswith("w") and _is_index(name[1:])


def _is_bound_name(name: str) -> bool:
    return name[0] in ("y", "z") and (len(name) == 1 or _is_index(name[1:]))


def _is_boole_var(name: str) -> bool:
    return name.startswith("v") and _is_index(name[1:])


# The binary operators of each language: token text -> (precedence, node
# class, right associative).  A higher precedence binds tighter.  The parser
# climbs these tables and the printer renders every binary node from them.
_FORMULA_OPERATORS = {
    "->": (1, Implies, True),
    "or": (2, Or, False),
    "and": (3, And, False),
}
_TERM_OPERATORS = {
    "+": (1, RAdd, False),
    "-": (1, RSub, False),
    "*": (2, RMul, False),
}
_OPERATOR_TEXT = {
    node: text
    for operators in (_FORMULA_OPERATORS, _TERM_OPERATORS)
    for text, (_, node, _) in operators.items()
}


class _Parser:
    def __init__(self, text: str, mode: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.mode = mode  # "ring" or "boole"
        self.text = text
        self.bound = frozenset()  # quantified names in scope at self.pos

    def _error(self, message: str, tok: _Token | None = None) -> FormulaSyntaxError:
        """A syntax error at tok, by default the next token or the end of the text."""
        tok = tok or self.peek()
        offset = len(self.text) if tok is None else tok.offset
        return FormulaSyntaxError(message, *_line_column(self.text, offset))

    def _index(self, tok: _Token) -> int:
        """The index k of a w<k> or v<k> name."""
        try:
            return int(tok.text[1:])
        except ValueError:  # past the interpreter's int-conversion digit limit
            raise self._error(
                f"variable index of {len(tok.text) - 1} digits is too long", tok
            ) from None

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self._error("unexpected end of input")
        if kind is not None and tok.kind != kind:
            raise self._error(f"expected {kind!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def parse_binary(self, operators: dict, operand, min_prec: int = 1):
        """Operands joined by the operators of one language, by precedence
        climbing: an operator takes as its right operand everything joined
        by tighter operators, and by itself too when right associative."""
        left = operand()
        while True:
            tok = self.peek()
            entry = None if tok is None else operators.get(tok.text)
            if entry is None or entry[0] < min_prec:
                return left
            prec, node, right_assoc = entry
            self.pos += 1
            right = self.parse_binary(operators, operand, prec if right_assoc else prec + 1)
            left = node(left, right)

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise self._error("unexpected end of input")
        if tok.kind == "kw" and tok.text == "not":
            self.take()
            return Not(self.parse_unary())
        if tok.kind == "kw" and tok.text in ("exists", "forall"):
            self.take()
            name = self.take("name")
            var = name.text
            if self.mode == "ring" and not _is_bound_name(var):
                raise self._error(f"quantified ring variables are y/z names, got {var!r}", name)
            if self.mode == "boole" and not _is_boole_var(var):
                raise self._error(f"quantified Boolean variables are v names, got {var!r}", name)
            if self.mode == "boole":
                self._index(name)  # refuse here what _var_key could not convert
            outer = self.bound
            self.bound = outer | {var}
            body = self.parse_binary(_FORMULA_OPERATORS, self.parse_unary)
            self.bound = outer
            return Exists(var, body) if tok.text == "exists" else Forall(var, body)
        if tok.kind == "(":
            # Either a parenthesized formula or a parenthesized ring term at
            # the start of an atom; try the formula first.  When both fail,
            # the error further into the text is reported.
            save = self.pos, self.bound
            try:
                self.take("(")
                inner = self.parse_binary(_FORMULA_OPERATORS, self.parse_unary)
                self.take(")")
                return inner
            except FormulaSyntaxError as formula_error:
                if self.mode != "ring":
                    raise
                self.pos, self.bound = save
                try:
                    return self.parse_ring_atom()
                except FormulaSyntaxError as term_error:
                    errors = (formula_error, term_error)
                    raise max(errors, key=lambda e: (e.line, e.column)) from None
        return self.parse_ring_atom() if self.mode == "ring" else self.parse_boole_atom()

    # ring atoms and terms

    def parse_ring_atom(self) -> Formula:
        left = self.parse_binary(_TERM_OPERATORS, self.parse_term_primary)
        self.take("=")
        return REq(left, self.parse_binary(_TERM_OPERATORS, self.parse_term_primary))

    def parse_term_primary(self) -> RingTerm:
        tok = self.peek()
        if tok is None:
            raise self._error("unexpected end of term")
        if tok.kind == "int":
            if tok.text not in ("0", "1"):
                raise self._error("only the ring constants 0 and 1 are allowed")
            self.take()
            return RConst(int(tok.text))
        if tok.kind == "name":
            self.take()
            if _is_ring_var(tok.text):
                return RVar(self._index(tok))
            if _is_bound_name(tok.text):
                if tok.text not in self.bound:
                    raise self._error(f"unbound quantified variable {tok.text!r}", tok)
                return RBound(tok.text)
            raise self._error(f"unknown ring variable {tok.text!r} (use w<k> or y/z names)", tok)
        if tok.kind == "(":
            self.take("(")
            inner = self.parse_binary(_TERM_OPERATORS, self.parse_term_primary)
            self.take(")")
            return inner
        raise self._error(f"unexpected token {tok.text!r} in term")

    # Boolean atoms

    def parse_boole_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "Fin":
            self.take()
            self.take("(")
            var = self._take_boole_var()
            self.take(")")
            return BFin(var)
        left = self._take_boole_var()
        op = self.take()
        if op.kind == "=":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "int":
                self.take()
                if nxt.text not in ("0", "1"):
                    raise self._error("only the constants 0 and 1 are allowed", nxt)
                return BConst(left, int(nxt.text))
            return BEq(left, self._take_boole_var())
        if op.kind == "kw" and op.text == "sub":
            return BSub(left, self._take_boole_var())
        raise self._error(f"expected '=' or 'sub', found {op.text!r}", op)

    def _take_boole_var(self) -> BVar:
        tok = self.take("name")
        if not _is_boole_var(tok.text):
            raise self._error(f"Boolean variables are v<k> names, got {tok.text!r}", tok)
        return BVar(self._index(tok))


def _parse(text: str, mode: str) -> Formula:
    parser = _Parser(text, mode)
    result = parser.parse_binary(_FORMULA_OPERATORS, parser.parse_unary)
    if parser.peek() is not None:
        raise parser._error(f"trailing input {parser.peek().text!r}")
    return result


def parse_ring_formula(text: str) -> Formula:
    """Parse a ring formula; free variables are the w<k> occurrences."""
    return _parse(text, "ring")


def parse_boole_formula(text: str) -> Formula:
    """Parse a Boolean-side formula over v<k> variables."""
    return _parse(text, "boole")


# -- free variables, arity, depth -------------------------------------------


def _var_key(var: str):
    """What a quantifier over var binds: the index of a v-variable, the name
    of a y/z variable (which no free w-index can equal)."""
    return int(var[1:]) if var[0] == "v" else var


def _free_vars(node, bound: frozenset) -> frozenset[int]:
    """Indices of the free w- or v-variables of a formula or term of either
    language; bound holds the keys of the enclosing quantifiers."""
    kind = type(node)
    if kind is RVar or kind is BVar:
        return frozenset(() if node.index in bound else (node.index,))
    if kind is RBound or kind is RConst:
        return frozenset()
    if kind is Exists or kind is Forall:
        return _free_vars(node.body, bound | {_var_key(node.var)})
    if kind is Not:
        return _free_vars(node.body, bound)
    if kind is BFin or kind is BConst:
        return _free_vars(node.var, bound)
    # binary connectives, ring atoms and operations, BEq, BSub
    return _free_vars(node.left, bound) | _free_vars(node.right, bound)


def ring_free_vars(node: Formula) -> frozenset[int]:
    """Indices of the free w-variables."""
    return _free_vars(node, frozenset())


def boole_free_vars(node: Formula) -> frozenset[int]:
    """Indices of the free v-variables (quantified indices are not free)."""
    return _free_vars(node, frozenset())


def ring_arity(node: Formula) -> int:
    """Arity: one past the largest free w-index (0 for a closed formula)."""
    free = ring_free_vars(node)
    return max(free) + 1 if free else 0


def boole_arity(node: Formula) -> int:
    free = boole_free_vars(node)
    return max(free) + 1 if free else 0


def quantifier_depth(node) -> int:
    if isinstance(node, (Exists, Forall)):
        return 1 + quantifier_depth(node.body)
    if isinstance(node, Not):
        return quantifier_depth(node.body)
    if isinstance(node, (And, Or, Implies)):
        return max(quantifier_depth(node.left), quantifier_depth(node.right))
    return 0


# -- pretty printer ----------------------------------------------------------


def _term_text(term: RingTerm) -> str:
    if isinstance(term, RVar):
        return f"w{term.index}"
    if isinstance(term, RBound):
        return term.name
    if isinstance(term, RConst):
        return str(term.value)
    if type(term) in _OPERATOR_TEXT:
        return f"({_term_text(term.left)} {_OPERATOR_TEXT[type(term)]} {_term_text(term.right)})"
    raise TypeError(f"unexpected term {term!r}")


def formula_to_text(node: Formula) -> str:
    """Canonical fully-parenthesized rendering; reparses to an equal tree
    when the rendering stays within MAX_FORMULA_TOKENS."""
    if isinstance(node, REq):
        return f"{_term_text(node.left)} = {_term_text(node.right)}"
    if isinstance(node, BEq):
        return f"v{node.left.index} = v{node.right.index}"
    if isinstance(node, BSub):
        return f"v{node.left.index} sub v{node.right.index}"
    if isinstance(node, BFin):
        return f"Fin(v{node.var.index})"
    if isinstance(node, BConst):
        return f"v{node.var.index} = {node.value}"
    if isinstance(node, Not):
        return f"not ({formula_to_text(node.body)})"
    if type(node) in _OPERATOR_TEXT:
        left, right = formula_to_text(node.left), formula_to_text(node.right)
        return f"({left}) {_OPERATOR_TEXT[type(node)]} ({right})"
    if isinstance(node, Exists):
        return f"exists {node.var} ({formula_to_text(node.body)})"
    if isinstance(node, Forall):
        return f"forall {node.var} ({formula_to_text(node.body)})"
    raise TypeError(f"unexpected node {node!r}")
