"""Evaluation of ring formulas over stalks and of generalized products.

The semantics implemented here is exhaustive: ring quantifiers range over all
stalk elements (stalk order capped), Boolean quantifiers range over all
subsets of the index set (size capped at 16), and the Fin predicate holds of
every subset because the index set is finite.  Note that over a finite index
set Fin is trivially full, which collapses the distinction it carries over
infinite index sets; tests that need Fin to be a proper ideal are excluded by
construction.

A generalized sentence is a Boolean-side formula applied to index sets of the
form [[theta]] = {i : stalk_i satisfies theta at the given global elements}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..finring import FiniteRing, find_ring_isomorphism
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
    boole_arity,
    boole_free_vars,
    quantifier_depth,
    ring_arity,
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

    Well-formed when psi's free v-variables index into thetas and every theta's
    free w-variables index into the global-element tuple it will be given.
    """

    psi: Formula
    thetas: tuple[Formula, ...]

    def __init__(self, psi, thetas):
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "thetas", tuple(thetas))
        if boole_arity(psi) > len(self.thetas):
            raise ArityMismatchError(
                f"psi uses v{boole_arity(psi) - 1} but only "
                f"{len(self.thetas)} ring formulas were supplied"
            )

    def theta_arity(self) -> int:
        return max((ring_arity(t) for t in self.thetas), default=0)


# ---------------------------------------------------------------------------
# Ring-formula satisfaction over one stalk.


def _eval_term(term: RingTerm, ring: FiniteRing, free, bound: dict) -> int:
    if isinstance(term, RVar):
        try:
            return free[term.index]
        except (KeyError, IndexError):
            raise ArityMismatchError(f"no value for free variable w{term.index}") from None
    if isinstance(term, RBound):
        return bound[term.name]
    if isinstance(term, RConst):
        return ring.one if term.value == 1 else ring.zero
    if isinstance(term, RAdd):
        return ring.add(_eval_term(term.left, ring, free, bound), _eval_term(term.right, ring, free, bound))
    if isinstance(term, RSub):
        return ring.sub(_eval_term(term.left, ring, free, bound), _eval_term(term.right, ring, free, bound))
    if isinstance(term, RMul):
        return ring.mul(_eval_term(term.left, ring, free, bound), _eval_term(term.right, ring, free, bound))
    raise TypeError(f"unexpected term {term!r}")


def _eval_ring(node: Formula, ring: FiniteRing, free, bound: dict) -> bool:
    if isinstance(node, REq):
        return _eval_term(node.left, ring, free, bound) == _eval_term(node.right, ring, free, bound)
    if isinstance(node, Not):
        return not _eval_ring(node.body, ring, free, bound)
    if isinstance(node, And):
        return _eval_ring(node.left, ring, free, bound) and _eval_ring(node.right, ring, free, bound)
    if isinstance(node, Or):
        return _eval_ring(node.left, ring, free, bound) or _eval_ring(node.right, ring, free, bound)
    if isinstance(node, Implies):
        return (not _eval_ring(node.left, ring, free, bound)) or _eval_ring(node.right, ring, free, bound)
    if isinstance(node, Exists):
        return any(
            _eval_ring(node.body, ring, free, {**bound, node.var: a}) for a in ring.elements()
        )
    if isinstance(node, Forall):
        return all(
            _eval_ring(node.body, ring, free, {**bound, node.var: a}) for a in ring.elements()
        )
    raise TypeError(f"unexpected node {node!r}")


def eval_ring_formula(theta: Formula, stalk: FiniteRing, assignment) -> bool:
    """First-order satisfaction of theta in one finite stalk.

    assignment maps free w-indices to element codes (a sequence or a dict);
    quantifiers range over every stalk element.
    """
    if stalk.order > MAX_STALK_ORDER:
        raise EvalCapError(f"stalk order {stalk.order} exceeds {MAX_STALK_ORDER}")
    if quantifier_depth(theta) > MAX_QUANTIFIER_DEPTH:
        raise EvalCapError(f"quantifier depth exceeds {MAX_QUANTIFIER_DEPTH}")
    for code in _assignment_codes(theta, assignment):
        if not 0 <= code < stalk.order:
            raise ValueError(f"element code {code} is not in the stalk")
    return _eval_ring(theta, stalk, assignment, {})


def _assignment_codes(theta, assignment):
    codes = []
    for idx in ring_free_vars(theta):
        try:
            codes.append(assignment[idx])
        except (KeyError, IndexError):
            raise ArityMismatchError(f"no value for free variable w{idx}") from None
    return codes


# ---------------------------------------------------------------------------
# [[theta]] sets and Boolean-side evaluation.


def theta_set(theta: Formula, family: FiniteFamily, elements) -> frozenset[str]:
    """The index set {i : stalk_i satisfies theta on the pointwise values}.

    elements is the tuple of global elements (f_0, ..., f_{k-1}); each f_j
    maps every index label to an element code of that stalk.
    """
    k = ring_arity(theta)
    if k > len(elements):
        raise ArityMismatchError(
            f"theta has arity {k} but only {len(elements)} global elements were given"
        )
    hits = []
    for i in family.index_set:
        stalk = family.stalks[i]
        local = {}
        for j in range(len(elements)):
            code = elements[j][i]
            if not 0 <= code < stalk.order:
                raise ValueError(f"element code {code} is not in stalk {i!r}")
            local[j] = code
        if eval_ring_formula(theta, stalk, local):
            hits.append(i)
    return frozenset(hits)


def _all_subsets(universe: tuple[str, ...]):
    for r in range(len(universe) + 1):
        for combo in combinations(universe, r):
            yield frozenset(combo)


def _eval_boole(node: Formula, universe: frozenset, assignment: dict) -> bool:
    if isinstance(node, BEq):
        return assignment[node.left.index] == assignment[node.right.index]
    if isinstance(node, BSub):
        return assignment[node.left.index] <= assignment[node.right.index]
    if isinstance(node, BFin):
        # The ideal of finite subsets of a finite index set is everything.
        _ = assignment[node.var.index]
        return True
    if isinstance(node, BConst):
        target = universe if node.value == 1 else frozenset()
        return assignment[node.var.index] == target
    if isinstance(node, Not):
        return not _eval_boole(node.body, universe, assignment)
    if isinstance(node, And):
        return _eval_boole(node.left, universe, assignment) and _eval_boole(node.right, universe, assignment)
    if isinstance(node, Or):
        return _eval_boole(node.left, universe, assignment) or _eval_boole(node.right, universe, assignment)
    if isinstance(node, Implies):
        return (not _eval_boole(node.left, universe, assignment)) or _eval_boole(
            node.right, universe, assignment
        )
    if isinstance(node, (Exists, Forall)):
        idx = int(node.var[1:])
        subsets = _all_subsets(tuple(sorted(universe)))
        if isinstance(node, Exists):
            return any(_eval_boole(node.body, universe, {**assignment, idx: s}) for s in subsets)
        return all(_eval_boole(node.body, universe, {**assignment, idx: s}) for s in subsets)
    raise TypeError(f"unexpected node {node!r}")


def eval_boole(psi: Formula, index_set, assignment) -> bool:
    """Satisfaction of psi in the powerset algebra of the index set.

    assignment maps free v-indices to subsets of the index set; quantifiers
    range over all 2^|I| subsets, so |I| is capped at MAX_INDEX_SET.
    """
    universe = frozenset(index_set)
    if len(universe) > MAX_INDEX_SET:
        raise EvalCapError(f"index set larger than {MAX_INDEX_SET} is not supported")
    env = {}
    for idx in boole_free_vars(psi):
        try:
            value = assignment[idx]
        except (KeyError, IndexError):
            raise ArityMismatchError(f"no value for Boolean variable v{idx}") from None
        value = frozenset(value)
        if not value <= universe:
            raise ValueError(f"assignment for v{idx} is not a subset of the index set")
        env[idx] = value
    return _eval_boole(psi, universe, env)


def gen_product_eval(sentence: GeneralizedSentence, family: FiniteFamily, elements=()) -> bool:
    """Evaluate psi([[theta_0]], ..., [[theta_{n-1}]]) over the family.

    Arity compatibility is checked before any evaluation: psi's free
    v-variables must index into the theta list, and every theta's free
    w-variables must index into the global-element tuple.
    """
    k = len(elements)
    for j, theta in enumerate(sentence.thetas):
        if ring_arity(theta) > k:
            raise ArityMismatchError(
                f"theta_{j} has arity {ring_arity(theta)} but {k} global elements were given"
            )
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
    (stalk order capped at 64).  Sentences must be closed (every theta of
    arity 0).  When the precondition fails the report says which indices
    broke it; otherwise it lists per-sentence values over both families.
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
        if sentence.theta_arity() != 0:
            raise ArityMismatchError("preservation sentences must have closed thetas")
        v1 = gen_product_eval(sentence, family1, ())
        v2 = gen_product_eval(sentence, family2, ())
        results.append((v1, v2))
    return PreservationReport(
        True, (), tuple(results), all(a == b for a, b in results)
    )


def _is_isomorphism(r1: FiniteRing, r2: FiniteRing, mapping: dict[int, int]) -> bool:
    if len(mapping) != r1.order or len(set(mapping.values())) != r1.order:
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
