"""Generalized products over finite families: formulas, families, evaluation."""

from .formulas import (
    FormulaSyntaxError,
    FormulaCapError,
    parse_ring_formula,
    parse_boole_formula,
    formula_to_text,
    ring_free_vars,
    boole_free_vars,
    ring_arity,
    boole_arity,
)
from .family import FiniteFamily, family_from_json, stalk_from_spec
from .evaluate import (
    GeneralizedSentence,
    EvalCapError,
    ArityMismatchError,
    PreservationReport,
    eval_ring_formula,
    theta_set,
    eval_boole,
    gen_product_eval,
    preservation_check,
)

__all__ = [
    "FormulaSyntaxError",
    "FormulaCapError",
    "parse_ring_formula",
    "parse_boole_formula",
    "formula_to_text",
    "ring_free_vars",
    "boole_free_vars",
    "ring_arity",
    "boole_arity",
    "FiniteFamily",
    "family_from_json",
    "stalk_from_spec",
    "GeneralizedSentence",
    "EvalCapError",
    "ArityMismatchError",
    "PreservationReport",
    "eval_ring_formula",
    "theta_set",
    "eval_boole",
    "gen_product_eval",
    "preservation_check",
]
