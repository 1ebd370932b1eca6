"""Tests for formula parsing and generalized-product evaluation."""

import random
import sys
import time
from collections import Counter

import pytest

from adelic.exactpoly import parse_int_poly
from adelic.finring import LocalQuotientRing, PermutedRing, ZmodRing
from adelic.fv import (
    ArityMismatchError,
    EvalCapError,
    FiniteFamily,
    FormulaSyntaxError,
    GeneralizedSentence,
    boole_arity,
    boole_free_vars,
    eval_boole,
    eval_ring_formula,
    family_from_json,
    formula_to_text,
    gen_product_eval,
    parse_boole_formula,
    parse_ring_formula,
    preservation_check,
    ring_arity,
    ring_free_vars,
    stalk_from_spec,
    theta_set,
)
from adelic.fv.evaluate import _cell_representatives
from adelic.fv.formulas import (
    MAX_FORMULA_TOKENS,
    And,
    Exists,
    Forall,
    FormulaCapError,
    Implies,
    Not,
    Or,
    RAdd,
    RBound,
    RConst,
    RMul,
    RSub,
    RVar,
    _tokenize,
    _var_key,
    quantifier_depth,
)
from test_finring import oracle_rings

P = parse_int_poly


# ---------------------------------------------------------------------------
# Parsing.


def test_parse_ring_formula_examples():
    t = parse_ring_formula("w0 + w0 = 0")
    assert ring_free_vars(t) == frozenset({0})
    assert ring_arity(t) == 1
    t2 = parse_ring_formula("exists y (y*y = w0)")
    assert ring_free_vars(t2) == frozenset({0})
    assert isinstance(t2, Exists)


def test_parse_boole_formula_example():
    b = parse_boole_formula("Fin(v0) and v0 = v1")
    assert isinstance(b, And)
    assert boole_arity(b) == 2


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_ring_formula("w0 + = 0")
    assert exc.value.line == 1 and exc.value.column >= 6
    with pytest.raises(FormulaSyntaxError):
        parse_ring_formula("w0 = 2")  # only constants 0 and 1 exist
    with pytest.raises(FormulaSyntaxError):
        parse_boole_formula("x0 = v1")
    with pytest.raises(FormulaSyntaxError):
        parse_ring_formula("exists v0 (v0 = 0)")  # wrong variable kind
    with pytest.raises(ValueError):
        parse_ring_formula("y = 0")  # unbound quantified variable
    # an index past the interpreter's int-conversion limit of 4,300 digits
    long_index = "9" * 5000
    for parse, text, column in (
        (parse_ring_formula, f"w0 = w{long_index}", 6),
        (parse_boole_formula, f"v0 sub v{long_index}", 8),
        (parse_boole_formula, f"exists v{long_index} (v0 = 0)", 8),
    ):
        with pytest.raises(FormulaSyntaxError, match="too long") as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (1, column)


@pytest.mark.parametrize(
    "text, column",
    [
        ("y = 0", 1),
        ("exists y (z = 0)", 11),
        ("(exists y (y = 0)) and y = w0", 24),
        ("(exists y (y = 0) and z1 * w0 = 0)", 23),
        ("exists y (y = 0) -> z1 = y", 21),
    ],
)
def test_unbound_quantified_variable_is_a_syntax_error(text, column):
    with pytest.raises(FormulaSyntaxError, match="unbound quantified variable") as exc:
        parse_ring_formula(text)
    assert (exc.value.line, exc.value.column) == (1, column)


LONG_INDEX = "9" * 5000


@pytest.mark.parametrize(
    "parse, text, message, line, column",
    [
        (parse_ring_formula, "w0 = 0 and\n\tw1 = 2", "only the ring constants", 2, 7),
        (parse_ring_formula, "exists y\n(\ty = 0 and\n  \tz = w0)", "unbound quantified", 3, 4),
        (parse_ring_formula, "w0 =\n\t", "unexpected end of term", 2, 2),
        (parse_ring_formula, f"w0 = 0 and\n\tw{LONG_INDEX} = 0", "too long", 2, 2),
        (parse_ring_formula, "(w0\t+ w1\n) * (\tw0\n=\n1)", "expected ')', found '='", 3, 1),
        (parse_ring_formula, "not (\n\tw0 = w1)\n\tv0", "trailing input 'v0'", 3, 2),
        (parse_ring_formula, "\r\n w0 = 0 ->\r\n\t(w1 = 0 and ) ", "unexpected token ')'", 3, 14),
        (parse_boole_formula, "v0 = 1 and\n\t\tv1 # v0", "unexpected character '#'", 2, 6),
        (parse_boole_formula, "v0 = 1 or\n\tFin(v1) and\n\t\tv2 = 3", "only the constants", 3, 8),
        (parse_boole_formula, "v0 = 1\n\tand\tx1 sub v0", "got 'x1'", 2, 6),
        # names take ASCII digits only; int() would read these as 3 and 1
        (parse_ring_formula, "w\u0663 = 0", "unknown ring variable", 1, 1),
        (parse_ring_formula, "exists y\u0661 (y\u0661 = 0)", "quantified ring variables", 1, 8),
        (parse_boole_formula, "exists v\u0661 (v\u0661 sub v0)", "quantified Boolean variables", 1, 8),
        (parse_boole_formula, "v0 sub v\u0663", "Boolean variables are v<k>", 1, 8),
    ],
)
def test_parse_error_positions_count_lines_and_tabs(parse, text, message, line, column):
    """A line starts after each newline; every other character, a tab or a
    carriage return too, is one column."""
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert message in str(exc.value)
    assert str(exc.value).endswith(f"(line {line}, column {column})")


def test_cap_error_names_the_position_of_the_first_token_past_the_cap():
    with pytest.raises(FormulaCapError, match=r"\(line 2, column 6\)$"):
        parse_boole_formula("not\t" * (MAX_FORMULA_TOKENS - 1) + "\n\t v0 = 1")


def _at_stack_depth(depth: int, fn):
    """fn() called with depth more frames on the stack."""
    return fn() if depth == 0 else _at_stack_depth(depth - 1, fn)


def test_formulas_at_the_length_cap_stay_within_the_recursion_limit():
    """The deepest nestings and longest chains the cap admits parse, print
    and evaluate with 200 frames already on the stack, and unclosed
    parentheses up to the cap are syntax errors; one token more is refused."""
    cap = MAX_FORMULA_TOKENS
    half = (cap - 3) // 2
    third = (cap - 3) // 3
    ring = {
        "(" * half + "w0 = w0" + ")" * half: True,
        "(" * half + "w0" + ")" * half + " = w0": True,
        "w0 + " * half + "w0 = 0": (half + 1) % 2 == 0,
        "not (" * third + "w0 = w0" + ")" * third: third % 2 == 0,
    }
    boole = {
        "not " * (cap - 3) + "v0 = 1": (cap - 3) % 2 == 0,
        "(" * half + "v0 = 1" + ")" * half: True,
        "exists v1 " * half + "v0 = 1": True,
        " and ".join(["v0 = 1"] * ((cap + 1) // 4)): True,
        " -> ".join(["v0 = 1"] * ((cap + 1) // 4 - 1) + ["v0 = 0"]): False,
    }
    index = ("a", "b", "c")

    def walk(parse, text):
        tree = parse(text)
        assert formula_to_text(tree)
        assert quantifier_depth(tree) in (0, half)
        return tree

    for text, value in ring.items():
        tree = _at_stack_depth(200, lambda: walk(parse_ring_formula, text))
        assert ring_free_vars(tree) == frozenset({0})
        assert _at_stack_depth(200, lambda: eval_ring_formula(tree, ZmodRing(2), {0: 1})) is value
    for text, value in boole.items():
        tree = _at_stack_depth(200, lambda: walk(parse_boole_formula, text))
        assert boole_arity(tree) == 1
        assert _at_stack_depth(200, lambda: eval_boole(tree, index, {0: frozenset(index)})) is value
    unclosed = {
        parse_ring_formula: ("(" * (cap - 1) + "w0", "(" * (cap - 3) + "w0 = w0"),
        parse_boole_formula: ("(" * (cap - 1) + "v0", "exists v1 (" * (cap // 3)),
    }
    for parse, texts in unclosed.items():
        for text in texts:
            with pytest.raises(FormulaSyntaxError):
                _at_stack_depth(200, lambda: parse(text))
    with pytest.raises(FormulaCapError, match="exceeds the cap"):
        parse_boole_formula("not " * (cap - 2) + "v0 = 1")
    with pytest.raises(FormulaCapError):
        parse_ring_formula("w0 = w0 and " * cap)


def _frames_below(call) -> int:
    """The deepest stack of Python frames that call() builds above its
    caller's frame, counted by a profile hook so that the stack the test
    runs on does not matter."""
    depth = deepest = 0

    def hook(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(hook)
    try:
        call()
    except FormulaSyntaxError:
        pass
    finally:
        sys.setprofile(None)
    return deepest - 1  # the frame of call itself


def test_parse_needs_at_most_two_frames_per_token():
    """The deepest texts the length cap admits: unclosed '(' up to the cap,
    and nestings of '(', 'not (' and quantifiers over half of it."""
    cap = MAX_FORMULA_TOKENS
    half = (cap - 3) // 2
    third = (cap - 3) // 3
    ring = [
        "(" * (cap - 1) + "w0",
        "(" * (cap - 3) + "w0 = w0",
        "(" * half + "w0 = w0" + ")" * half,
        "(" * half + "w0" + ")" * half + " = w0",
        "not (" * third + "w0 = w0" + ")" * third,
        "exists y " * half + "w0 = 0",
    ]
    boole = [
        "(" * (cap - 1) + "v0",
        "(" * half + "v0 = 1" + ")" * half,
        "not (" * third + "v0 = 1" + ")" * third,
        "exists v1 " * half + "v0 = 1",
    ]
    for parse, texts in ((parse_ring_formula, ring), (parse_boole_formula, boole)):
        for text in texts:
            frames = _frames_below(lambda: parse(text))
            assert frames <= 2 * len(_tokenize(text)) + 10, (text, frames)


def test_quantifier_scope_is_maximal():
    t = parse_ring_formula("exists y y = 0 and y = w0")
    assert isinstance(t, Exists)
    assert isinstance(t.body, And)


# Precedence (-> below or below and; + and - below *) and associativity (->
# to the right, the others to the left) for every ordered pair of binary
# operators of each language, bare, after `not` (which binds tightest) and
# after a quantifier (which takes the whole formula).
RING_RENDERINGS = {
    "w0 = 0 -> w1 = 1 -> w0 = w1": "(w0 = 0) -> ((w1 = 1) -> (w0 = w1))",
    "not w0 = 0 -> w1 = 1 -> w0 = w1": "(not (w0 = 0)) -> ((w1 = 1) -> (w0 = w1))",
    "exists y w0 = 0 -> w1 = 1 -> w0 = w1": "exists y ((w0 = 0) -> ((w1 = 1) -> (w0 = w1)))",
    "w0 = 0 -> w1 = 1 or w0 = w1": "(w0 = 0) -> ((w1 = 1) or (w0 = w1))",
    "not w0 = 0 -> w1 = 1 or w0 = w1": "(not (w0 = 0)) -> ((w1 = 1) or (w0 = w1))",
    "exists y w0 = 0 -> w1 = 1 or w0 = w1": "exists y ((w0 = 0) -> ((w1 = 1) or (w0 = w1)))",
    "w0 = 0 -> w1 = 1 and w0 = w1": "(w0 = 0) -> ((w1 = 1) and (w0 = w1))",
    "not w0 = 0 -> w1 = 1 and w0 = w1": "(not (w0 = 0)) -> ((w1 = 1) and (w0 = w1))",
    "exists y w0 = 0 -> w1 = 1 and w0 = w1": "exists y ((w0 = 0) -> ((w1 = 1) and (w0 = w1)))",
    "w0 = 0 or w1 = 1 -> w0 = w1": "((w0 = 0) or (w1 = 1)) -> (w0 = w1)",
    "not w0 = 0 or w1 = 1 -> w0 = w1": "((not (w0 = 0)) or (w1 = 1)) -> (w0 = w1)",
    "exists y w0 = 0 or w1 = 1 -> w0 = w1": "exists y (((w0 = 0) or (w1 = 1)) -> (w0 = w1))",
    "w0 = 0 or w1 = 1 or w0 = w1": "((w0 = 0) or (w1 = 1)) or (w0 = w1)",
    "not w0 = 0 or w1 = 1 or w0 = w1": "((not (w0 = 0)) or (w1 = 1)) or (w0 = w1)",
    "exists y w0 = 0 or w1 = 1 or w0 = w1": "exists y (((w0 = 0) or (w1 = 1)) or (w0 = w1))",
    "w0 = 0 or w1 = 1 and w0 = w1": "(w0 = 0) or ((w1 = 1) and (w0 = w1))",
    "not w0 = 0 or w1 = 1 and w0 = w1": "(not (w0 = 0)) or ((w1 = 1) and (w0 = w1))",
    "exists y w0 = 0 or w1 = 1 and w0 = w1": "exists y ((w0 = 0) or ((w1 = 1) and (w0 = w1)))",
    "w0 = 0 and w1 = 1 -> w0 = w1": "((w0 = 0) and (w1 = 1)) -> (w0 = w1)",
    "not w0 = 0 and w1 = 1 -> w0 = w1": "((not (w0 = 0)) and (w1 = 1)) -> (w0 = w1)",
    "exists y w0 = 0 and w1 = 1 -> w0 = w1": "exists y (((w0 = 0) and (w1 = 1)) -> (w0 = w1))",
    "w0 = 0 and w1 = 1 or w0 = w1": "((w0 = 0) and (w1 = 1)) or (w0 = w1)",
    "not w0 = 0 and w1 = 1 or w0 = w1": "((not (w0 = 0)) and (w1 = 1)) or (w0 = w1)",
    "exists y w0 = 0 and w1 = 1 or w0 = w1": "exists y (((w0 = 0) and (w1 = 1)) or (w0 = w1))",
    "w0 = 0 and w1 = 1 and w0 = w1": "((w0 = 0) and (w1 = 1)) and (w0 = w1)",
    "not w0 = 0 and w1 = 1 and w0 = w1": "((not (w0 = 0)) and (w1 = 1)) and (w0 = w1)",
    "exists y w0 = 0 and w1 = 1 and w0 = w1": "exists y (((w0 = 0) and (w1 = 1)) and (w0 = w1))",
    "w0 + w1 + w2 = 0": "((w0 + w1) + w2) = 0",
    "not w0 + w1 + w2 = 0": "not (((w0 + w1) + w2) = 0)",
    "forall z w0 + w1 + w2 = 0": "forall z (((w0 + w1) + w2) = 0)",
    "w0 + w1 - w2 = 0": "((w0 + w1) - w2) = 0",
    "not w0 + w1 - w2 = 0": "not (((w0 + w1) - w2) = 0)",
    "forall z w0 + w1 - w2 = 0": "forall z (((w0 + w1) - w2) = 0)",
    "w0 + w1 * w2 = 0": "(w0 + (w1 * w2)) = 0",
    "not w0 + w1 * w2 = 0": "not ((w0 + (w1 * w2)) = 0)",
    "forall z w0 + w1 * w2 = 0": "forall z ((w0 + (w1 * w2)) = 0)",
    "w0 - w1 + w2 = 0": "((w0 - w1) + w2) = 0",
    "not w0 - w1 + w2 = 0": "not (((w0 - w1) + w2) = 0)",
    "forall z w0 - w1 + w2 = 0": "forall z (((w0 - w1) + w2) = 0)",
    "w0 - w1 - w2 = 0": "((w0 - w1) - w2) = 0",
    "not w0 - w1 - w2 = 0": "not (((w0 - w1) - w2) = 0)",
    "forall z w0 - w1 - w2 = 0": "forall z (((w0 - w1) - w2) = 0)",
    "w0 - w1 * w2 = 0": "(w0 - (w1 * w2)) = 0",
    "not w0 - w1 * w2 = 0": "not ((w0 - (w1 * w2)) = 0)",
    "forall z w0 - w1 * w2 = 0": "forall z ((w0 - (w1 * w2)) = 0)",
    "w0 * w1 + w2 = 0": "((w0 * w1) + w2) = 0",
    "not w0 * w1 + w2 = 0": "not (((w0 * w1) + w2) = 0)",
    "forall z w0 * w1 + w2 = 0": "forall z (((w0 * w1) + w2) = 0)",
    "w0 * w1 - w2 = 0": "((w0 * w1) - w2) = 0",
    "not w0 * w1 - w2 = 0": "not (((w0 * w1) - w2) = 0)",
    "forall z w0 * w1 - w2 = 0": "forall z (((w0 * w1) - w2) = 0)",
    "w0 * w1 * w2 = 0": "((w0 * w1) * w2) = 0",
    "not w0 * w1 * w2 = 0": "not (((w0 * w1) * w2) = 0)",
    "forall z w0 * w1 * w2 = 0": "forall z (((w0 * w1) * w2) = 0)",
}
BOOLE_RENDERINGS = {
    "v0 = 0 -> v1 sub v0 -> Fin(v1)": "(v0 = 0) -> ((v1 sub v0) -> (Fin(v1)))",
    "not v0 = 0 -> v1 sub v0 -> Fin(v1)": "(not (v0 = 0)) -> ((v1 sub v0) -> (Fin(v1)))",
    "exists v2 v0 = 0 -> v1 sub v0 -> Fin(v1)":
        "exists v2 ((v0 = 0) -> ((v1 sub v0) -> (Fin(v1))))",
    "v0 = 0 -> v1 sub v0 or Fin(v1)": "(v0 = 0) -> ((v1 sub v0) or (Fin(v1)))",
    "not v0 = 0 -> v1 sub v0 or Fin(v1)": "(not (v0 = 0)) -> ((v1 sub v0) or (Fin(v1)))",
    "exists v2 v0 = 0 -> v1 sub v0 or Fin(v1)":
        "exists v2 ((v0 = 0) -> ((v1 sub v0) or (Fin(v1))))",
    "v0 = 0 -> v1 sub v0 and Fin(v1)": "(v0 = 0) -> ((v1 sub v0) and (Fin(v1)))",
    "not v0 = 0 -> v1 sub v0 and Fin(v1)": "(not (v0 = 0)) -> ((v1 sub v0) and (Fin(v1)))",
    "exists v2 v0 = 0 -> v1 sub v0 and Fin(v1)":
        "exists v2 ((v0 = 0) -> ((v1 sub v0) and (Fin(v1))))",
    "v0 = 0 or v1 sub v0 -> Fin(v1)": "((v0 = 0) or (v1 sub v0)) -> (Fin(v1))",
    "not v0 = 0 or v1 sub v0 -> Fin(v1)": "((not (v0 = 0)) or (v1 sub v0)) -> (Fin(v1))",
    "exists v2 v0 = 0 or v1 sub v0 -> Fin(v1)":
        "exists v2 (((v0 = 0) or (v1 sub v0)) -> (Fin(v1)))",
    "v0 = 0 or v1 sub v0 or Fin(v1)": "((v0 = 0) or (v1 sub v0)) or (Fin(v1))",
    "not v0 = 0 or v1 sub v0 or Fin(v1)": "((not (v0 = 0)) or (v1 sub v0)) or (Fin(v1))",
    "exists v2 v0 = 0 or v1 sub v0 or Fin(v1)":
        "exists v2 (((v0 = 0) or (v1 sub v0)) or (Fin(v1)))",
    "v0 = 0 or v1 sub v0 and Fin(v1)": "(v0 = 0) or ((v1 sub v0) and (Fin(v1)))",
    "not v0 = 0 or v1 sub v0 and Fin(v1)": "(not (v0 = 0)) or ((v1 sub v0) and (Fin(v1)))",
    "exists v2 v0 = 0 or v1 sub v0 and Fin(v1)":
        "exists v2 ((v0 = 0) or ((v1 sub v0) and (Fin(v1))))",
    "v0 = 0 and v1 sub v0 -> Fin(v1)": "((v0 = 0) and (v1 sub v0)) -> (Fin(v1))",
    "not v0 = 0 and v1 sub v0 -> Fin(v1)": "((not (v0 = 0)) and (v1 sub v0)) -> (Fin(v1))",
    "exists v2 v0 = 0 and v1 sub v0 -> Fin(v1)":
        "exists v2 (((v0 = 0) and (v1 sub v0)) -> (Fin(v1)))",
    "v0 = 0 and v1 sub v0 or Fin(v1)": "((v0 = 0) and (v1 sub v0)) or (Fin(v1))",
    "not v0 = 0 and v1 sub v0 or Fin(v1)": "((not (v0 = 0)) and (v1 sub v0)) or (Fin(v1))",
    "exists v2 v0 = 0 and v1 sub v0 or Fin(v1)":
        "exists v2 (((v0 = 0) and (v1 sub v0)) or (Fin(v1)))",
    "v0 = 0 and v1 sub v0 and Fin(v1)": "((v0 = 0) and (v1 sub v0)) and (Fin(v1))",
    "not v0 = 0 and v1 sub v0 and Fin(v1)": "((not (v0 = 0)) and (v1 sub v0)) and (Fin(v1))",
    "exists v2 v0 = 0 and v1 sub v0 and Fin(v1)":
        "exists v2 (((v0 = 0) and (v1 sub v0)) and (Fin(v1)))",
}


def test_precedence_and_associativity_of_every_operator_pair():
    for parse, renderings in (
        (parse_ring_formula, RING_RENDERINGS),
        (parse_boole_formula, BOOLE_RENDERINGS),
    ):
        for text, rendering in renderings.items():
            tree = parse(text)
            assert formula_to_text(tree) == rendering, text
            assert parse(rendering) == tree, text


def test_round_trip_identity_fixed():
    ring_cases = [
        "w0 + w0 = 0",
        "exists y (y*y = w0)",
        "not (w0 = 1) -> w1*w0 = w1 - w0",
        "forall y (exists z (y*z = w0 or z = 0))",
        "(w0 + w1) * w2 = w1",
    ]
    for text in ring_cases:
        tree = parse_ring_formula(text)
        assert parse_ring_formula(formula_to_text(tree)) == tree
    boole_cases = [
        "Fin(v0) and v0 = v1",
        "exists v1 (v1 sub v0 and not (v1 = v0))",
        "v0 = 1 -> (v1 = 0 or v0 sub v1)",
    ]
    for text in boole_cases:
        tree = parse_boole_formula(text)
        assert parse_boole_formula(formula_to_text(tree)) == tree


def random_ring_formula(rng, max_free, depth=2, bound_vars=()):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        def term(d=2):
            r = rng.random()
            if d == 0 or r < 0.4:
                pool = [f"w{rng.randrange(max_free)}"] if max_free else []
                pool += list(bound_vars) + ["0", "1"]
                return rng.choice(pool)
            op = rng.choice(["+", "-", "*"])
            return f"({term(d - 1)} {op} {term(d - 1)})"

        return f"{term()} = {term()}"
    if roll < 0.5:
        return f"not ({random_ring_formula(rng, max_free, depth - 1, bound_vars)})"
    if roll < 0.75:
        op = rng.choice(["and", "or", "->"])
        return (
            f"({random_ring_formula(rng, max_free, depth - 1, bound_vars)}) {op} "
            f"({random_ring_formula(rng, max_free, depth - 1, bound_vars)})"
        )
    name = rng.choice(["y", "z", "y1", "z2"])
    q = rng.choice(["exists", "forall"])
    return f"{q} {name} ({random_ring_formula(rng, max_free, depth - 1, bound_vars + (name,))})"


def test_round_trip_identity_random():
    rng = random.Random(424242)
    for _ in range(200):
        text = random_ring_formula(rng, max_free=2)
        tree = parse_ring_formula(text)
        assert parse_ring_formula(formula_to_text(tree)) == tree
    for _ in range(200):
        free = rng.sample(range(4), rng.randrange(3))
        text = random_boole_formula(rng, free, rng.randrange(0 if free else 1, 4))
        tree = parse_boole_formula(text)
        assert parse_boole_formula(formula_to_text(tree)) == tree, text


# ---------------------------------------------------------------------------
# Ring-formula evaluation.


def test_eval_ring_formula_examples():
    assert eval_ring_formula(parse_ring_formula("w0 + w0 = 0"), ZmodRing(2), {0: 1})
    assert not eval_ring_formula(parse_ring_formula("w0 + w0 = 0"), ZmodRing(5), {0: 2})
    squares_mod_7 = {(x * x) % 7 for x in range(7)}
    theta = parse_ring_formula("exists y (y*y = w0)")
    for a in range(7):
        assert eval_ring_formula(theta, ZmodRing(7), {0: a}) == (a in squares_mod_7)


def test_eval_ring_formula_unbound_variable():
    with pytest.raises(ArityMismatchError):
        eval_ring_formula(parse_ring_formula("w1 = 0"), ZmodRing(3), {0: 1})


def test_inner_quantifier_shadows_and_restores():
    # the inner y shadows the outer one only inside its own scope
    theta = parse_ring_formula("exists y ((exists y (y = 1)) and y = 0)")
    assert eval_ring_formula(theta, ZmodRing(3), {})
    # a quantified v0 shadows the free v0 only inside its own scope
    psi = parse_boole_formula("(exists v0 (v0 = 1)) and v0 = 0")
    assert eval_boole(psi, ("a", "b"), {0: frozenset()})
    assert boole_arity(psi) == 1


def test_eval_ring_formula_caps():
    deep = parse_ring_formula(
        "exists y (forall z (exists y1 (forall z1 (exists y2 (y + z + y1 + z1 + y2 = 0)))))"
    )
    with pytest.raises(EvalCapError):
        eval_ring_formula(deep, ZmodRing(2), {})


# Oracle: the tree walk that evaluated formulas before they were compiled.
# It dispatches on the kind of every node at every visit.

_COMPOUND = frozenset((Not, And, Or, Implies, Exists, Forall))


def tree_walk_holds(node, env, atom, domain):
    """Truth of node under env, which maps free-variable indices and bound
    keys to values: atom(node, env) decides an atom, and a quantifier binds
    its variable to each value of domain(env) in turn."""
    kind = type(node)
    if kind not in _COMPOUND:
        return atom(node, env)
    if kind is And:
        return tree_walk_holds(node.left, env, atom, domain) and tree_walk_holds(node.right, env, atom, domain)
    if kind is Or:
        return tree_walk_holds(node.left, env, atom, domain) or tree_walk_holds(node.right, env, atom, domain)
    if kind is Not:
        return not tree_walk_holds(node.body, env, atom, domain)
    if kind is Implies:
        return not tree_walk_holds(node.left, env, atom, domain) or tree_walk_holds(node.right, env, atom, domain)
    key, want = _var_key(node.var), kind is Exists
    outer = env.get(key)  # a shadowed binding, or None for a fresh name
    try:
        for value in domain(env):
            env[key] = value
            if tree_walk_holds(node.body, env, atom, domain) is want:
                return want
        return not want
    finally:
        env[key] = outer


def tree_walk_term(term, ring, env):
    kind = type(term)
    if kind is RVar:
        return env[term.index]
    if kind is RBound:
        return env[term.name]
    if kind is RConst:
        return ring.one if term.value == 1 else ring.zero
    left, right = tree_walk_term(term.left, ring, env), tree_walk_term(term.right, ring, env)
    if kind is RAdd:
        return ring.add(left, right)
    if kind is RSub:
        return ring.sub(left, right)
    if kind is RMul:
        return ring.mul(left, right)
    raise TypeError(f"unexpected term {term!r}")


def tree_walk_ring_formula(theta, ring, assignment):
    def equal(node, env):
        return tree_walk_term(node.left, ring, env) == tree_walk_term(node.right, ring, env)

    return tree_walk_holds(theta, dict(assignment), equal, lambda env: ring.elements())


def ring_formula_features(node, bound=frozenset()):
    """The kinds of the nodes of a ring formula or term, with "shadow" for a
    quantifier that rebinds a name in scope."""
    kind = type(node)
    if kind in (Exists, Forall):
        shadow = {"shadow"} if node.var in bound else set()
        return {kind} | shadow | ring_formula_features(node.body, bound | {node.var})
    children = [getattr(node, name) for name in ("body", "left", "right") if hasattr(node, name)]
    return {kind}.union(*(ring_formula_features(child, bound) for child in children))


def shadowing_ring_formula(rng):
    """Text of a quantifier whose body is a random formula, in which an
    inner quantifier may rebind the same name, joined to an atom that may
    read the name after it."""
    name = rng.choice(["y", "z", "y1", "z2"])
    inner = random_ring_formula(rng, 2, 2, (name,))
    after = random_ring_formula(rng, 2, 0, (name,))
    q, op = rng.choice(["exists", "forall"]), rng.choice(["and", "or", "->"])
    return f"{q} {name} (({inner}) {op} ({after}))"


def test_compiled_ring_formulas_match_the_tree_walk():
    """eval_ring_formula on one stalk, and theta_set, which compiles theta
    once for all its stalks, agree with the tree walk on seeded formulas."""
    rng = random.Random(2323)
    rings = oracle_rings()
    # three nested quantifiers visit order^3 assignments, so they get the small rings
    small = [r for r in rings if r.order <= 9]
    features, truths = Counter(), set()
    for trial in range(600):
        if trial % 2:
            theta = parse_ring_formula(shadowing_ring_formula(rng))
        else:
            theta = parse_ring_formula(random_ring_formula(rng, max_free=2, depth=3))
        stalks = rng.sample(small if quantifier_depth(theta) == 3 else rings, 3)
        labels = ("a", "b", "c")
        elements = [{i: rng.randrange(r.order) for i, r in zip(labels, stalks)} for _ in range(2)]
        expected = {
            i: tree_walk_ring_formula(theta, r, {j: f[i] for j, f in enumerate(elements)})
            for i, r in zip(labels, stalks)
        }
        where = (trial, formula_to_text(theta))
        local = {j: f["a"] for j, f in enumerate(elements)}
        assert eval_ring_formula(theta, stalks[0], local) == expected["a"], where
        family = FiniteFamily(labels, dict(zip(labels, stalks)))
        assert theta_set(theta, family, elements) == {i for i, v in expected.items() if v}, where
        features.update(ring_formula_features(theta))
        truths.update(expected.values())
    assert truths == {False, True}
    # free and bound variables, both constants, every operation, shadowing
    for feature in (RVar, RBound, RConst, RAdd, RSub, RMul, Exists, Forall, "shadow"):
        assert features[feature] >= 10, (feature, features[feature])


# ---------------------------------------------------------------------------
# theta sets.


def zmod_family():
    return FiniteFamily(("a", "b", "c"), {"a": ZmodRing(2), "b": ZmodRing(3), "c": ZmodRing(5)})


def test_theta_set_examples():
    fam = zmod_family()
    ones = {"a": 1, "b": 1, "c": 1}
    assert theta_set(parse_ring_formula("w0 + w0 = 0"), fam, (ones,)) == frozenset({"a"})
    zeros = {"a": 0, "b": 0, "c": 0}
    assert theta_set(parse_ring_formula("w0 = 0"), fam, (zeros,)) == frozenset({"a", "b", "c"})
    f = {"a": 1, "b": 2, "c": 4}
    assert theta_set(parse_ring_formula("exists y (y*y = w0)"), fam, (f,)) == frozenset({"a", "c"})


def test_theta_set_rejects_foreign_elements():
    fam = zmod_family()
    with pytest.raises(ValueError):
        theta_set(parse_ring_formula("w0 = 0"), fam, ({"a": 9, "b": 0, "c": 0},))


def test_theta_set_boolean_homomorphism_random():
    """[[not theta]] = complement and [[theta1 and theta2]] = intersection."""
    rng = random.Random(9001)
    fam = zmod_family()
    universe = frozenset(fam.index_set)
    for _ in range(100):
        t1 = parse_ring_formula(random_ring_formula(rng, max_free=2))
        t2 = parse_ring_formula(random_ring_formula(rng, max_free=2))
        f0 = {i: rng.randrange(fam.stalks[i].order) for i in fam.index_set}
        f1 = {i: rng.randrange(fam.stalks[i].order) for i in fam.index_set}
        els = (f0, f1)
        s1 = theta_set(t1, fam, els)
        s2 = theta_set(t2, fam, els)
        neg = parse_ring_formula(f"not ({formula_to_text(t1)})")
        conj = parse_ring_formula(f"({formula_to_text(t1)}) and ({formula_to_text(t2)})")
        disj = parse_ring_formula(f"({formula_to_text(t1)}) or ({formula_to_text(t2)})")
        assert theta_set(neg, fam, els) == universe - s1
        assert theta_set(conj, fam, els) == s1 & s2
        assert theta_set(disj, fam, els) == s1 | s2


def test_theta_set_binds_only_the_indices_that_occur():
    """Only theta's free w-indices need a global element, in a sequence or a
    dict; elements at other indices are not read."""
    fam = zmod_family()
    zeros = {"a": 0, "b": 0, "c": 0}
    everything = frozenset(fam.index_set)
    theta = parse_ring_formula("w99999999999 = 0")
    assert theta_set(theta, fam, {99999999999: zeros}) == everything
    assert theta_set(parse_ring_formula("w1 = 0"), fam, ({"a": 9}, zeros)) == everything
    with pytest.raises(ArityMismatchError):
        theta_set(theta, fam, (zeros,))
    sentence = GeneralizedSentence(parse_boole_formula("v0 = 1"), (theta,))
    assert gen_product_eval(sentence, fam, {99999999999: zeros})
    with pytest.raises(ArityMismatchError):
        gen_product_eval(sentence, fam, {0: zeros})


# ---------------------------------------------------------------------------
# Boolean-side evaluation.


def test_eval_boole_examples():
    index = ("a", "b", "c")
    assert eval_boole(parse_boole_formula("v0 = 1"), index, {0: frozenset(index)})
    assert eval_boole(parse_boole_formula("Fin(v0)"), index, {0: frozenset()})
    assert eval_boole(parse_boole_formula("Fin(v0)"), index, {0: frozenset(("b",))})
    assert eval_boole(
        parse_boole_formula("exists v1 (v1 sub v0 and not (v1 = v0))"),
        index,
        {0: frozenset(("a",))},
    )
    assert not eval_boole(
        parse_boole_formula("exists v1 (v1 sub v0 and not (v1 = v0))"),
        index,
        {0: frozenset()},
    )


def test_eval_boole_index_cap():
    big = tuple(f"i{k}" for k in range(17))
    with pytest.raises(EvalCapError):
        eval_boole(parse_boole_formula("v0 = 1"), big, {0: frozenset(big)})


def test_eval_boole_quantifiers_range_over_powerset():
    index = ("a", "b")
    psi = parse_boole_formula(
        "exists v1 (exists v2 (not (v1 = v2) and v1 sub v0 and v2 sub v0))"
    )
    # two distinct subsets exist below the full set, but not below the bottom
    assert eval_boole(psi, index, {0: frozenset(index)})
    assert not eval_boole(psi, index, {0: frozenset()})


def test_two_nested_boolean_quantifiers_over_16_indices_are_fast():
    index = tuple(f"i{k:02d}" for k in range(16))
    psi = parse_boole_formula("forall v1 forall v2 (v1 sub v2 or not (v1 sub v2))")
    start = time.perf_counter()
    assert eval_boole(psi, index, {})
    # 969 pairs of cell representatives, where the powerset has 2^32 pairs
    assert time.perf_counter() - start < 1.0


def test_cell_representatives_one_subset_per_count_vector():
    ordered = tuple("abcdef")
    env = {0: frozenset("abc"), 1: frozenset("cde"), 2: None}
    # cells {a, b}, {c}, {d, e} and {f}
    reps = list(_cell_representatives(ordered, env))
    assert len(reps) == 3 * 2 * 3 * 2
    counts = {tuple(len(r & cell) for cell in map(frozenset, ("ab", "c", "de", "f"))) for r in reps}
    assert len(counts) == len(reps)
    assert frozenset("ad") in reps and frozenset("be") not in reps
    assert list(_cell_representatives((), {})) == [frozenset()]


def brute_force_boole(node, full, env):
    """Oracle: the Boolean walk with every quantifier over all 2^|I|
    subsets.  A subset is a bit mask over the sorted labels, full is the mask
    of the index set, and env maps v-indices to masks."""
    kind = type(node).__name__
    if kind == "BSub":
        return env[node.left.index] & ~env[node.right.index] == 0
    if kind == "BEq":
        return env[node.left.index] == env[node.right.index]
    if kind == "BConst":
        return env[node.var.index] == (full if node.value == 1 else 0)
    if kind == "BFin":
        return True
    if kind == "Not":
        return not brute_force_boole(node.body, full, env)
    if kind in ("And", "Or", "Implies"):
        left = brute_force_boole(node.left, full, env)
        right = brute_force_boole(node.right, full, env)
        return {"And": left and right, "Or": left or right, "Implies": not left or right}[kind]
    key, want = int(node.var[1:]), kind == "Exists"
    outer = env.get(key)
    try:
        for mask in range(full + 1):
            env[key] = mask
            if brute_force_boole(node.body, full, env) is want:
                return want
        return not want
    finally:
        env[key] = outer


def random_boole_formula(rng, names, depth, width=2):
    """Text of a random Boolean formula over the v-indices in names, with at
    most depth nested quantifiers and width nested binary connectives.  A
    quantifier usually binds a fresh index but may rebind one in scope, so
    shadowing occurs.  Atoms favour the two innermost names.  One leaf says
    that two sets are incomparable: the prefixes of one Venn cell form a
    chain, so a domain that ignores how an outer variable splits a cell
    finds no incomparable pair inside it."""
    roll = rng.random()
    if names and (depth == width == 0 or roll < 0.2):
        pool = names[-2:] if rng.random() < 0.5 else names
        a, b = rng.sample(pool, 2) if len(pool) > 1 else pool * 2
        leaf = rng.choice([
            f"v{a} sub v{b}",
            f"v{a} = v{b}",
            f"v{a} = 0",
            f"v{a} = 1",
            f"Fin(v{a})",
            f"not (v{a} sub v{b}) and not (v{b} sub v{a})",
        ])
        return f"not ({leaf})" if rng.random() < 0.5 else leaf
    if names and (depth == 0 or width and roll < 0.4):
        op = rng.choice(["and", "or", "->"])
        left, right = (random_boole_formula(rng, names, depth, width - 1) for _ in range(2))
        return f"({left}) {op} ({right})"
    fresh = [i for i in range(6) if i not in names]
    var = rng.choice(names if names and rng.random() < 0.25 else fresh)
    body = random_boole_formula(rng, [n for n in names if n != var] + [var], depth - 1, width)
    quantified = f"{rng.choice(['exists', 'forall'])} v{var} ({body})"
    return f"not ({quantified})" if rng.random() < 0.2 else quantified


def test_eval_boole_matches_the_powerset_walk():
    rng = random.Random(20)
    truths = set()
    for trial in range(600):
        universe = frozenset(f"i{k}" for k in range(rng.randrange(7)))
        free = rng.sample(range(4), rng.randrange(3))
        # with no free variable the formula starts with a quantifier
        depth = rng.randrange(0 if free else 1, 4)
        psi = parse_boole_formula(random_boole_formula(rng, free, depth))
        assert quantifier_depth(psi) <= 3 and boole_free_vars(psi) <= set(free)
        labels = sorted(universe)
        masks = {i: rng.getrandbits(len(labels)) for i in free}
        assignment = {
            i: frozenset(x for k, x in enumerate(labels) if mask >> k & 1) for i, mask in masks.items()
        }
        expected = brute_force_boole(psi, (1 << len(labels)) - 1, masks)
        assert eval_boole(psi, labels, assignment) == expected, (trial, formula_to_text(psi))
        truths.add(expected)
    assert truths == {False, True}


# ---------------------------------------------------------------------------
# Generalized products.


def test_gen_product_eval_examples():
    fam = zmod_family()
    ones = {"a": 1, "b": 1, "c": 1}
    tautology = parse_ring_formula("w0 = w0")
    g1 = GeneralizedSentence(parse_boole_formula("v0 = 1"), (tautology,))
    assert gen_product_eval(g1, fam, (ones,))
    g2 = GeneralizedSentence(parse_boole_formula("v0 = 0"), (tautology,))
    assert not gen_product_eval(g2, fam, (ones,))
    g3 = GeneralizedSentence(
        parse_boole_formula("not (v0 = 1)"), (parse_ring_formula("w0 + w0 = 0"),)
    )
    assert gen_product_eval(g3, fam, (ones,))


def test_gen_product_arity_mismatch_reported_before_evaluation():
    with pytest.raises(ArityMismatchError):
        GeneralizedSentence(parse_boole_formula("v0 = 1 and v1 = 0"), (parse_ring_formula("w0 = w0"),))
    g = GeneralizedSentence(parse_boole_formula("v0 = 1"), (parse_ring_formula("w1 = 0"),))
    with pytest.raises(ArityMismatchError):
        gen_product_eval(g, zmod_family(), ({"a": 0, "b": 0, "c": 0},))
    # theta_0 would raise on the foreign code 9; theta_1's missing w5 is found first
    thetas = (parse_ring_formula("w0 = 0"), parse_ring_formula("w5 = 0"))
    g = GeneralizedSentence(parse_boole_formula("v0 = v1"), thetas)
    with pytest.raises(ArityMismatchError):
        gen_product_eval(g, zmod_family(), ({"a": 9, "b": 0, "c": 0},))


def test_gen_product_atomic_matches_every_stalk_semantics():
    """psi = (v0 = 1) with an atomic equality theta agrees with satisfaction in
    every stalk simultaneously, i.e. with the direct product."""
    rng = random.Random(555)
    fam = zmod_family()
    psi = parse_boole_formula("v0 = 1")
    for _ in range(100):
        def term(d=2):
            r = rng.random()
            if d == 0 or r < 0.45:
                return rng.choice(["w0", "w1", "0", "1"])
            return f"({term(d-1)} {rng.choice(['+', '-', '*'])} {term(d-1)})"

        theta = parse_ring_formula(f"{term()} = {term()}")
        f0 = {i: rng.randrange(fam.stalks[i].order) for i in fam.index_set}
        f1 = {i: rng.randrange(fam.stalks[i].order) for i in fam.index_set}
        via_product = gen_product_eval(GeneralizedSentence(psi, (theta,)), fam, (f0, f1))
        pointwise = all(
            eval_ring_formula(theta, fam.stalks[i], {0: f0[i], 1: f1[i]})
            for i in fam.index_set
        )
        assert via_product == pointwise


# ---------------------------------------------------------------------------
# Preservation under stalk-wise isomorphism.


def closed_sentences(rng, count):
    out = []
    for _ in range(count):
        theta = parse_ring_formula(random_ring_formula(rng, max_free=0))
        psi = rng.choice(
            ["v0 = 1", "v0 = 0", "not (v0 = 1)", "Fin(v0)", "exists v1 (v1 sub v0)"]
        )
        out.append(GeneralizedSentence(parse_boole_formula(psi), (theta,)))
    return out


def test_preservation_identical_families():
    rng = random.Random(31337)
    fam = zmod_family()
    report = preservation_check(fam, fam, closed_sentences(rng, 20))
    assert report.precondition_ok and report.all_agree


def test_preservation_relabeled_stalks_50_sentences():
    rng = random.Random(60601)
    base = {"a": ZmodRing(4), "b": ZmodRing(3), "c": LocalQuotientRing(2, 1, 2, None, 1)}
    relabeled = {}
    for label, ring in base.items():
        perm = list(range(ring.order))
        rng.shuffle(perm)
        relabeled[label] = PermutedRing(ring, perm)
    f1 = FiniteFamily(("a", "b", "c"), base)
    f2 = FiniteFamily(("a", "b", "c"), relabeled)
    report = preservation_check(f1, f2, closed_sentences(rng, 50))
    assert report.precondition_ok
    assert report.all_agree
    assert len(report.results) == 50


def test_preservation_witnesses_are_checked():
    rng = random.Random(1959)
    base = {"a": ZmodRing(4), "b": LocalQuotientRing(2, 1, 2, None, 1)}
    perms = {label: rng.sample(range(ring.order), ring.order) for label, ring in base.items()}
    relabeled = {label: PermutedRing(ring, perms[label]) for label, ring in base.items()}
    f1 = FiniteFamily(("a", "b"), base)
    f2 = FiniteFamily(("a", "b"), relabeled)
    witnesses = {label: dict(enumerate(perm)) for label, perm in perms.items()}
    report = preservation_check(f1, f2, closed_sentences(rng, 5), witnesses)
    assert report.precondition_ok and report.all_agree
    # swapping the images of 2 and 3 breaks 1 + 1 = 2 on Z/4
    bad = dict(witnesses["a"])
    bad[2], bad[3] = bad[3], bad[2]
    report = preservation_check(f1, f2, [], {**witnesses, "a": bad})
    assert not report.precondition_ok
    assert report.nonisomorphic_indices == ("a",)
    # the embedding of F_2 into F_4 preserves add and mul but is not onto
    small = FiniteFamily(("a",), {"a": ZmodRing(2)})
    large = FiniteFamily(("a",), {"a": LocalQuotientRing(2, 1, 2, None, 1)})
    report = preservation_check(small, large, [], {"a": {0: 0, 1: large.stalks["a"].one}})
    assert not report.precondition_ok


def test_preservation_precondition_failure_reported():
    f1 = FiniteFamily(("a",), {"a": ZmodRing(4)})
    f2 = FiniteFamily(("a",), {"a": LocalQuotientRing(2, 2, 1, P("x^2-2"), 2)})
    report = preservation_check(f1, f2, [])
    assert not report.precondition_ok
    assert report.nonisomorphic_indices == ("a",)


def test_preservation_rejects_open_thetas():
    fam = zmod_family()
    g = GeneralizedSentence(parse_boole_formula("v0 = 1"), (parse_ring_formula("w0 = 0"),))
    with pytest.raises(ArityMismatchError):
        preservation_check(fam, fam, [g])


# ---------------------------------------------------------------------------
# Families from JSON.


def test_family_from_json_kinds():
    fam = family_from_json(
        '{"index": ["a", "b", "c", "d"], "stalks": {'
        '"a": {"kind": "Zmod", "m": 4},'
        '"b": {"kind": "GF", "p": 2, "f": 2},'
        '"c": {"kind": "Unramified", "p": 3, "f": 1, "s": 2},'
        '"d": {"kind": "Eisenstein", "p": 2, "e": 2, "s": 2, "coeffs": [-2, 0, 1]}}}'
    )
    orders = [fam.stalks[i].order for i in fam.index_set]
    assert orders == [4, 4, 9, 4]


def test_stalk_order_is_checked_before_construction():
    for spec in (
        {"kind": "Zmod", "m": 4096},
        {"kind": "GF", "p": 2, "f": 12},
        {"kind": "Unramified", "p": 2, "f": 3, "s": 4},
        {"kind": "Eisenstein", "p": 2, "e": 2, "s": 12, "coeffs": [2, 0, 1]},
    ):
        assert stalk_from_spec(spec).order == 4096
    assert stalk_from_spec({"kind": "GF", "p": 4093, "f": 1}).order == 4093
    for spec in (
        {"kind": "Zmod", "m": 4097},
        {"kind": "GF", "p": 4099, "f": 1},
        {"kind": "Unramified", "p": 2, "f": 1, "s": 13},
        {"kind": "Unramified", "p": 3, "f": 1, "s": 10**8},
        {"kind": "Eisenstein", "p": 3, "e": 2, "s": 10**9, "coeffs": [3, 0, 1]},
    ):
        with pytest.raises(ValueError, match="> 4096"):
            stalk_from_spec(spec)
    # a ring built directly is still checked by the family
    with pytest.raises(ValueError, match="has order 4097"):
        FiniteFamily(("a",), {"a": ZmodRing(4097)})


def test_family_validation():
    with pytest.raises(ValueError):
        FiniteFamily(("a", "a"), {"a": ZmodRing(2)})
    with pytest.raises(ValueError):
        FiniteFamily(("a",), {"b": ZmodRing(2)})
    with pytest.raises(ValueError):
        family_from_json('{"index": ["a"], "stalks": {"a": {"kind": "Banana"}}}')
    with pytest.raises(ValueError):
        FiniteFamily(tuple(f"i{k}" for k in range(17)), {f"i{k}": ZmodRing(2) for k in range(17)})
