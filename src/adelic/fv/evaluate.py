"""Evaluation of ring formulas over stalks and of generalized products.

Ring quantifiers range over all stalk elements (stalk order capped).  A
Boolean quantifier ranges over one subset for each vector of counts in the
Venn cells of the sets already bound (index set capped at 16): two subsets
with equal counts in every cell are swapped by a permutation of the index set
that fixes every set in scope, so the body cannot tell them apart (Feferman &
Vaught, Fund. Math. 47, 1959).  The Fin predicate holds of every subset
because the index set is finite.  Note that over a finite index set Fin is
trivially full, which collapses the distinction it carries over infinite
index sets; tests that need Fin to be a proper ideal are excluded by
construction.

A generalized sentence is a Boolean-side formula applied to index sets of the
form [[theta]] = {i : stalk_i satisfies theta at the given global elements}.

Both languages are evaluated by compiling a formula once into nested
closures: dispatch on node kind and the keys of bound variables are settled
at compile time, and a stalk's constants and bound add/sub/mul (or an index
set's top element) when the closures are bound to it.  theta_set compiles
theta and checks its depth once, then binds it to each stalk in turn.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter

from ..finring import FiniteRing, _is_isomorphism, find_ring_isomorphism
from .family import MAX_INDEX_SET, MAX_STALK_ORDER, FiniteFamily
from .formulas import (
    And,
    BConst,
    BEq,
    BFin,
    BSub,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    RAdd,
    RBound,
    RConst,
    REq,
    RMul,
    RSub,
    RVar,
    RingTerm,
    _var_key,
    boole_free_vars,
    quantifier_depth,
    ring_free_vars,
)

__all__ = [
    "GeneralizedSentence",
    "EvalCapError",
    "ArityMismatchError",
    "PreservationReport",
    "eval_ring_formula",
    "theta_set",
    "eval_boole",
    "gen_product_eval",
    "preservation_check",
    "MAX_QUANTIFIER_DEPTH",
]

MAX_QUANTIFIER_DEPTH = 4
MAX_PRESERVATION_STALK = 64


class EvalCapError(ValueError):
    """An evaluation cap (index-set size, stalk order, quantifier depth) was exceeded."""


class ArityMismatchError(ValueError):
    """The formula arities and supplied data do not line up."""


@dataclass(frozen=True, slots=True)
class GeneralizedSentence:
    """A Boolean-side formula psi applied to a tuple of ring formulas.

    Well-formed when psi's free v-variables index into thetas and every free
    w-variable of every theta has a global element in what it will be given.
    """

    psi: Formula
    thetas: tuple[Formula, ...]

    def __init__(self, psi, thetas):
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "thetas", tuple(thetas))
        _environment(boole_free_vars(psi), self.thetas, "Boolean variable v")


# ---------------------------------------------------------------------------
# One compiler for the connectives and quantifiers of both languages.  A
# compiled node is a function of a context (a stalk, or an index set) that
# returns a predicate on env, which maps free-variable indices and bound keys
# to values; the combinators below build those predicates.

_CONNECTIVES = {
    And: lambda left, right: lambda env: left(env) and right(env),
    Or: lambda left, right: lambda env: left(env) or right(env),
    Implies: lambda left, right: lambda env: not left(env) or right(env),
}


def _negation(holds):
    return lambda env: not holds(env)


def _constant(value):
    return lambda env: value


def _quantifier(key, want: bool, holds, values):
    """Exists (want True) or forall (want False): key is bound to each of
    values(env) in turn, and whatever it held before is restored."""

    def quantified(env):
        outer = env.get(key)  # a shadowed binding, or None for a fresh name
        try:
            for value in values(env):
                env[key] = value
                if holds(env) is want:
                    return want
            return not want
        finally:
            env[key] = outer

    return quantified


def _compile(node: Formula, atom, domain):
    """node as a function of a context that returns its truth on env:
    atom(node) compiles an atom the same way, and a quantifier ranges over
    domain(context)(env)."""
    kind = type(node)
    if kind in _CONNECTIVES:
        join = _CONNECTIVES[kind]
        left, right = _compile(node.left, atom, domain), _compile(node.right, atom, domain)
        return lambda context: join(left(context), right(context))
    if kind is Not:
        body = _compile(node.body, atom, domain)
        return lambda context: _negation(body(context))
    if kind is not Exists and kind is not Forall:
        return atom(node)
    key, want, body = _var_key(node.var), kind is Exists, _compile(node.body, atom, domain)
    return lambda context: _quantifier(key, want, body(context), domain(context))


def _environment(free, assignment, name: str) -> dict:
    """The values assignment (a sequence or a dict) gives the free variables
    that occur; a missing one is an arity mismatch."""
    env = {}
    for idx in free:
        try:
            env[idx] = assignment[idx]
        except (KeyError, IndexError):
            raise ArityMismatchError(f"no value for {name}{idx}") from None
    return env


# ---------------------------------------------------------------------------
# Ring-formula satisfaction over one stalk.

_RING_OPERATIONS = {RAdd: "add", RSub: "sub", RMul: "mul"}


def _ring_term(term: RingTerm):
    """term as a function of a stalk that returns its value on env."""
    kind = type(term)
    if kind is RVar or kind is RBound:
        get = itemgetter(term.index if kind is RVar else term.name)
        return lambda ring: get
    if kind is RConst:
        name = "one" if term.value == 1 else "zero"
        return lambda ring: _constant(getattr(ring, name))
    name = _RING_OPERATIONS.get(kind)
    if name is None:
        raise TypeError(f"unexpected term {term!r}")
    left, right = _ring_term(term.left), _ring_term(term.right)
    return lambda ring: _operation(getattr(ring, name), left(ring), right(ring))


def _operation(op, left, right):
    return lambda env: op(left(env), right(env))


def _equal(left, right):
    return lambda env: left(env) == right(env)


def _ring_atom(node: REq):
    left, right = _ring_term(node.left), _ring_term(node.right)
    return lambda ring: _equal(left(ring), right(ring))


def _stalk_domain(ring: FiniteRing):
    elements = ring.elements()
    return lambda env: elements


@dataclass(frozen=True, slots=True)
class _CompiledTheta:
    """A ring formula checked against the depth cap and compiled: its free
    w-indices, and bind(stalk), its truth in that stalk as a predicate on env."""

    free: frozenset[int]
    bind: Callable[[FiniteRing], Callable[[dict], bool]]


def _compile_theta(theta: Formula) -> _CompiledTheta:
    if quantifier_depth(theta) > MAX_QUANTIFIER_DEPTH:
        raise EvalCapError(f"quantifier depth exceeds {MAX_QUANTIFIER_DEPTH}")
    return _CompiledTheta(ring_free_vars(theta), _compile(theta, _ring_atom, _stalk_domain))


def eval_ring_formula(theta, stalk: FiniteRing, assignment) -> bool:
    """First-order satisfaction of theta in one finite stalk.

    theta is a ring formula, or one that theta_set compiled once for all
    its stalks.  assignment maps free w-indices to element codes (a sequence
    or a dict); quantifiers range over every stalk element.
    """
    if stalk.order > MAX_STALK_ORDER:
        raise EvalCapError(f"stalk order {stalk.order} exceeds {MAX_STALK_ORDER}")
    compiled = theta if isinstance(theta, _CompiledTheta) else _compile_theta(theta)
    env = _environment(compiled.free, assignment, "free variable w")
    for code in env.values():
        if not 0 <= code < stalk.order:
            raise ValueError(f"element code {code} is not in the stalk")
    return compiled.bind(stalk)(env)


# ---------------------------------------------------------------------------
# [[theta]] sets and Boolean-side evaluation.


def theta_set(theta: Formula, family: FiniteFamily, elements) -> frozenset[str]:
    """The index set {i : stalk_i satisfies theta on the pointwise values}.

    elements (a sequence or a dict) gives a global element f_j for each free
    w-index j of theta, and f_j maps every index label to an element code of
    that stalk.  Only the free indices are read.
    """
    env = _environment(ring_free_vars(theta), elements, "free variable w")
    compiled = _compile_theta(theta)
    hits = []
    for i in family.index_set:
        stalk = family.stalks[i]
        local = {j: f[i] for j, f in env.items()}
        for code in local.values():
            if not 0 <= code < stalk.order:
                raise ValueError(f"element code {code} is not in stalk {i!r}")
        if eval_ring_formula(compiled, stalk, local):
            hits.append(i)
    return frozenset(hits)


def _cell_representatives(ordered: tuple[str, ...], env: dict):
    """One subset per vector of counts in the Venn cells that the sets bound
    in env cut from ordered: for each k up to a cell's size it takes the
    cell's first k labels, so there are prod(|cell| + 1) subsets."""
    bound = [value for value in env.values() if value is not None]
    cells: dict[tuple[bool, ...], list[str]] = {}
    for label in ordered:
        cells.setdefault(tuple(label in value for value in bound), []).append(label)
    prefixes = [[cell[:k] for k in range(len(cell) + 1)] for cell in cells.values()]
    for parts in product(*prefixes):
        yield frozenset(chain.from_iterable(parts))


def _subset_domain(universe: frozenset):
    ordered = tuple(sorted(universe))
    return lambda env: _cell_representatives(ordered, env)


def _boole_atom(node: Formula):
    """A Boolean atom as a function of the index set that returns its truth on env."""
    kind = type(node)
    if kind is BSub:
        left, right = itemgetter(node.left.index), itemgetter(node.right.index)
        return lambda universe: lambda env: left(env) <= right(env)
    if kind is BEq:
        return lambda universe: _equal(itemgetter(node.left.index), itemgetter(node.right.index))
    if kind is BConst:
        get, top = itemgetter(node.var.index), node.value == 1
        return lambda universe: _equal(get, _constant(universe if top else frozenset()))
    if kind is BFin:
        # The ideal of finite subsets of a finite index set is everything.
        return lambda universe: _constant(True)
    raise TypeError(f"unexpected node {node!r}")


def eval_boole(psi: Formula, index_set, assignment) -> bool:
    """Satisfaction of psi in the powerset algebra of the index set.

    assignment maps free v-indices to subsets of the index set.  A quantifier
    tries one subset per vector of counts in the Venn cells of the sets in
    scope, prod(|cell| + 1) of them where the powerset has 2^|I|; |I| is
    capped at MAX_INDEX_SET.
    """
    universe = frozenset(index_set)
    if len(universe) > MAX_INDEX_SET:
        raise EvalCapError(f"index set larger than {MAX_INDEX_SET} is not supported")
    env = _environment(boole_free_vars(psi), assignment, "Boolean variable v")
    for idx, value in env.items():
        env[idx] = value = frozenset(value)
        if not value <= universe:
            raise ValueError(f"assignment for v{idx} is not a subset of the index set")
    return _compile(psi, _boole_atom, _subset_domain)(universe)(env)


def gen_product_eval(sentence: GeneralizedSentence, family: FiniteFamily, elements=()) -> bool:
    """Evaluate psi([[theta_0]], ..., [[theta_{n-1}]]) over the family.

    Bindings are checked before any evaluation: psi's free v-variables must
    index into the theta list, and elements (a sequence or a dict) must hold
    a global element for every free w-variable of every theta.
    """
    for theta in sentence.thetas:
        _environment(ring_free_vars(theta), elements, "free variable w")
    sets = [theta_set(theta, family, elements) for theta in sentence.thetas]
    return eval_boole(sentence.psi, family.index_set, dict(enumerate(sets)))


# ---------------------------------------------------------------------------
# Preservation under stalk-wise isomorphism.


@dataclass(frozen=True, slots=True)
class PreservationReport:
    """Outcome of evaluating sentences over two stalk-wise isomorphic families.

    precondition_ok is False when some pair of stalks is not isomorphic (the
    comparison is then not meaningful and results is empty).  disagreements
    would indicate an evaluator bug, not a counterexample to preservation.
    """

    precondition_ok: bool
    nonisomorphic_indices: tuple[str, ...]
    results: tuple[tuple[bool, bool], ...]
    all_agree: bool


def preservation_check(
    family1: FiniteFamily,
    family2: FiniteFamily,
    sentences,
    witnesses: dict[str, dict[int, int]] | None = None,
) -> PreservationReport:
    """Evaluate closed generalized sentences over two families with isomorphic stalks.

    The stalk-wise isomorphisms are taken from witnesses or searched for
    (stalk order capped at 64); a witness is accepted when it is a total map
    whose own pairs close to the witness itself.  Sentences
    must be closed (no theta has a free w-variable).  When the precondition
    fails the report says which indices broke it; otherwise it lists
    per-sentence values over both families.
    """
    if family1.index_set != family2.index_set:
        raise ValueError("families must share one index set")
    bad = []
    for i in family1.index_set:
        s1, s2 = family1.stalks[i], family2.stalks[i]
        if witnesses is not None and i in witnesses:
            if not _is_isomorphism(s1, s2, witnesses[i]):
                bad.append(i)
            continue
        if s1.order > MAX_PRESERVATION_STALK or s2.order > MAX_PRESERVATION_STALK:
            raise EvalCapError(
                f"stalk order exceeds {MAX_PRESERVATION_STALK}; supply an isomorphism witness"
            )
        if find_ring_isomorphism(s1, s2) is None:
            bad.append(i)
    if bad:
        return PreservationReport(False, tuple(bad), (), False)
    results = []
    for sentence in sentences:
        # No global elements, so an open theta is an arity mismatch.
        v1 = gen_product_eval(sentence, family1, ())
        v2 = gen_product_eval(sentence, family2, ())
        results.append((v1, v2))
    return PreservationReport(
        True, (), tuple(results), all(a == b for a, b in results)
    )

