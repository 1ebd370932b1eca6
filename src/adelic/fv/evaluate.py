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

A ring formula is emitted once as one Python expression, with all(...) and
any(...) over the stalk's elements E for its quantifiers, and compiled into
a function that theta_set calls for each stalk with that stalk's add, sub,
mul, zero, one and E and the codes of its free variables.  A Boolean-side
formula is evaluated by a direct recursive walk: its quantifiers visit too
few subsets to repay a compile().
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, product

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


def _environment(free, assignment, name: str) -> dict:
    """The values assignment (a sequence or a dict) gives the free variables
    that occur, in the order of free; a missing one is an arity mismatch."""
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
_CONNECTIVES = {And: "({} and {})", Or: "({} or {})", Implies: "(not {} or {})"}


def _term_source(term: RingTerm, scope: dict) -> str:
    kind = type(term)
    if kind is RVar:
        return f"w{term.index}"
    if kind is RBound:
        return scope[term.name]
    if kind is RConst:
        return "one" if term.value == 1 else "zero"
    name = _RING_OPERATIONS.get(kind)
    if name is None:
        raise TypeError(f"unexpected term {term!r}")
    return f"{name}({_term_source(term.left, scope)}, {_term_source(term.right, scope)})"


def _ring_source(node: Formula, scope: dict, depth: int) -> str:
    """node as a Python expression.  scope maps each quantified name in
    scope to q<k>, k being the number of quantifiers around the one that
    binds it (depth counts those around node), so that a name an inner
    quantifier rebinds gets a q<k> of its own."""
    kind = type(node)
    if kind is REq:
        return f"{_term_source(node.left, scope)} == {_term_source(node.right, scope)}"
    if kind is Not:
        return f"not {_ring_source(node.body, scope, depth)}"
    if kind in _CONNECTIVES:
        left, right = _ring_source(node.left, scope, depth), _ring_source(node.right, scope, depth)
        return _CONNECTIVES[kind].format(left, right)
    if kind is not Exists and kind is not Forall:
        raise TypeError(f"unexpected node {node!r}")
    var = f"q{depth}"
    body = _ring_source(node.body, {**scope, node.var: var}, depth + 1)
    return f"{'any' if kind is Exists else 'all'}({body} for {var} in E)"


def _compile_theta(theta: Formula, free: list[int]) -> Callable[..., bool]:
    """theta, checked against the depth cap, compiled once into a function
    of a stalk's add, sub, mul, zero, one and elements(), followed by the
    codes at the free w-indices in the order of free.  Only names made here
    reach compile(), and the function sees no builtins but any and all."""
    if quantifier_depth(theta) > MAX_QUANTIFIER_DEPTH:
        raise EvalCapError(f"quantifier depth exceeds {MAX_QUANTIFIER_DEPTH}")
    params = ", ".join(["add", "sub", "mul", "zero", "one", "E", *(f"w{j}" for j in free)])
    code = compile(f"lambda {params}: {_ring_source(theta, {}, 0)}", "<theta>", "eval")
    return eval(code, {"__builtins__": {}, "any": any, "all": all})


def _stalk_arguments(stalk: FiniteRing) -> tuple:
    return stalk.add, stalk.sub, stalk.mul, stalk.zero, stalk.one, stalk.elements()


def eval_ring_formula(theta: Formula, stalk: FiniteRing, assignment) -> bool:
    """First-order satisfaction of theta in one finite stalk.

    assignment maps free w-indices to element codes (a sequence or a dict);
    quantifiers range over every stalk element.
    """
    if stalk.order > MAX_STALK_ORDER:
        raise EvalCapError(f"stalk order {stalk.order} exceeds {MAX_STALK_ORDER}")
    free = sorted(ring_free_vars(theta))
    holds = _compile_theta(theta, free)
    codes = _environment(free, assignment, "free variable w").values()
    for code in codes:
        if not 0 <= code < stalk.order:
            raise ValueError(f"element code {code} is not in the stalk")
    return holds(*_stalk_arguments(stalk), *codes)


# ---------------------------------------------------------------------------
# [[theta]] sets and Boolean-side evaluation.


def theta_set(theta: Formula, family: FiniteFamily, elements) -> frozenset[str]:
    """The index set {i : stalk_i satisfies theta on the pointwise values}.

    elements (a sequence or a dict) gives a global element f_j for each free
    w-index j of theta, and f_j maps every index label to an element code of
    that stalk.  Only the free indices are read.
    """
    free = sorted(ring_free_vars(theta))
    global_elements = _environment(free, elements, "free variable w").values()
    holds = _compile_theta(theta, free)
    hits = []
    for i in family.index_set:
        stalk = family.stalks[i]
        codes = [f[i] for f in global_elements]
        for code in codes:
            if not 0 <= code < stalk.order:
                raise ValueError(f"element code {code} is not in stalk {i!r}")
        if holds(*_stalk_arguments(stalk), *codes):
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
    ordered = tuple(sorted(universe))

    def holds(node: Formula) -> bool:
        """The truth of node under env, which maps free v-indices and the
        keys of the quantifiers around node to subsets."""
        kind = type(node)
        if kind is Not:
            return not holds(node.body)
        if kind is And:
            return holds(node.left) and holds(node.right)
        if kind is Or:
            return holds(node.left) or holds(node.right)
        if kind is Implies:
            return not holds(node.left) or holds(node.right)
        if kind is Exists or kind is Forall:
            key, want = _var_key(node.var), kind is Exists
            outer = env.get(key)  # a shadowed binding, or None for a fresh name
            try:
                for value in _cell_representatives(ordered, env):
                    env[key] = value
                    if holds(node.body) is want:
                        return want
                return not want
            finally:
                env[key] = outer
        if kind is BSub:
            return env[node.left.index] <= env[node.right.index]
        if kind is BEq:
            return env[node.left.index] == env[node.right.index]
        if kind is BConst:
            return env[node.var.index] == (universe if node.value == 1 else frozenset())
        if kind is BFin:
            # The ideal of finite subsets of a finite index set is everything.
            return True
        raise TypeError(f"unexpected node {node!r}")

    return holds(psi)


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

