"""Every refusal of outside input that no other test reaches.

Each case names the exception class and a piece of its message; the CLI
cases also pin the exit code and the stderr line.
"""

import pytest

from adelic.cli import EXIT_PARSE, main
from adelic.corpus import corpus_field
from adelic.exactpoly import (
    IntPoly,
    ModPoly,
    NonSquarefreeError,
    PolyParseError,
    cz_factor,
    factor_modp,
    irreducible_modp,
    parse_int_poly,
    resultant,
    sturm_real_roots,
)
from adelic.finring import LocalQuotientRing, PermutedRing, ZmodRing
from adelic.fv import (
    EvalCapError,
    FiniteFamily,
    FormulaSyntaxError,
    eval_boole,
    eval_ring_formula,
    family_from_json,
    parse_boole_formula,
    parse_ring_formula,
    preservation_check,
)
from adelic.fv.evaluate import MAX_PRESERVATION_STALK, MAX_STALK_ORDER
from adelic.invariants import (
    aq_distinguisher,
    arithmetic_equiv,
    degree_via_split_prime,
    keating_bound,
    residue_ring_construct,
    spectrum,
    zeta_partial_coefficients,
)
from adelic.primes import valuation
from adelic.splitting import NumberField

K = NumberField.from_text("x^2 - 2")
W0 = parse_ring_formula("w0 = w0")


def _one_stalk(order: int) -> FiniteFamily:
    return FiniteFamily(("a",), {"a": ZmodRing(order)})


REFUSALS = {
    # exactpoly
    "parse-operand": (lambda: parse_int_poly("x + * 2"), PolyParseError,
                      "expected a coefficient or x, found '*' (at position 4)"),
    "parse-operator": (lambda: parse_int_poly("x x"), PolyParseError,
                       "expected + or -, found 'x' (at position 2)"),
    "modpoly-modulus-1": (lambda: ModPoly(1, [1]), ValueError, "modulus must be at least 2"),
    "divide-by-zero": (lambda: divmod(ModPoly(5, [1, 1]), ModPoly(5, [])), ZeroDivisionError,
                       "division by the zero polynomial"),
    "factor-non-monic": (lambda: factor_modp(ModPoly(5, [1, 2])), ValueError,
                         "factor_modp requires a monic nonzero polynomial"),
    "cz-non-squarefree": (lambda: cz_factor(ModPoly(5, [1, 2, 1]), 1), NonSquarefreeError,
                          "cz_factor requires a squarefree polynomial"),
    "irreducible-degree-0": (lambda: irreducible_modp(5, 0), ValueError,
                             "degree must be at least 1"),
    "resultant-zero-first": (lambda: resultant(IntPoly([]), IntPoly([1, 1])), ValueError,
                             "resultant of the zero polynomial is undefined"),
    "resultant-zero-second": (lambda: resultant(IntPoly([1, 1]), IntPoly([])), ValueError,
                              "resultant of the zero polynomial is undefined"),
    "sturm-zero": (lambda: sturm_real_roots(IntPoly([])), ValueError, "zero polynomial"),
    # finring
    "zmod-1": (lambda: ZmodRing(1), ValueError, "modulus must be at least 2"),
    "local-composite-p": (lambda: LocalQuotientRing(4, 1, 1, None, 1), ValueError,
                          "4 is not prime"),
    "local-e-0": (lambda: LocalQuotientRing(2, 0, 1, None, 1), ValueError,
                  "e, f, s must be positive"),
    "local-f-0": (lambda: LocalQuotientRing(2, 1, 0, None, 1), ValueError,
                  "e, f, s must be positive"),
    "local-s-0": (lambda: LocalQuotientRing(2, 1, 1, None, 0), ValueError,
                  "e, f, s must be positive"),
    "perm-repeats": (lambda: PermutedRing(ZmodRing(3), [0, 0, 1]), ValueError,
                     "perm must be a permutation of the element codes"),
    "perm-short": (lambda: PermutedRing(ZmodRing(3), [0, 1]), ValueError,
                   "perm must be a permutation of the element codes"),
    # invariants
    "spectrum-bound-1": (lambda: spectrum(K, 1), ValueError, "bound must be at least 2"),
    "degree-bound-1": (lambda: degree_via_split_prime(K, 1), ValueError,
                       "bound must be at least 2"),
    "aq-bound-1": (lambda: aq_distinguisher(K, 1), ValueError, "bound must be at least 2"),
    "equiv-bound-1": (lambda: arithmetic_equiv(K, K, 1), ValueError,
                      "bound must be at least 2"),
    "zeta-N-0": (lambda: zeta_partial_coefficients(K, 0), ValueError, "N must be at least 1"),
    "keating-composite-p": (lambda: keating_bound(4, 1), ValueError, "4 is not prime"),
    "keating-e-0": (lambda: keating_bound(2, 0), ValueError,
                    "ramification index must be positive"),
    "residue-ring-s-0": (lambda: residue_ring_construct(2, 1, 1, None, 0), ValueError,
                         "truncation level must be at least 1"),
    "residue-ring-composite-p": (lambda: residue_ring_construct(4, 1, 1, None, 1), ValueError,
                                 "4 is not prime"),
    # fv
    "stalk-order-cap": (lambda: eval_ring_formula(W0, ZmodRing(MAX_STALK_ORDER + 1), [0]),
                        EvalCapError, f"stalk order {MAX_STALK_ORDER + 1} exceeds"),
    "code-past-order": (lambda: eval_ring_formula(W0, ZmodRing(5), [5]), ValueError,
                        "element code 5 is not in the stalk"),
    "code-negative": (lambda: eval_ring_formula(W0, ZmodRing(5), [-1]), ValueError,
                      "element code -1 is not in the stalk"),
    "boole-not-subset": (lambda: eval_boole(parse_boole_formula("v0 = v0"), ["a"], [{"b"}]),
                         ValueError, "assignment for v0 is not a subset of the index set"),
    "preservation-two-index-sets": (
        lambda: preservation_check(_one_stalk(2), FiniteFamily(("b",), {"b": ZmodRing(2)}), []),
        ValueError, "families must share one index set"),
    "preservation-no-witness": (
        lambda: preservation_check(_one_stalk(MAX_PRESERVATION_STALK + 1),
                                   _one_stalk(MAX_PRESERVATION_STALK + 1), []),
        EvalCapError, f"stalk order exceeds {MAX_PRESERVATION_STALK}; supply an isomorphism"),
    "family-without-stalks": (lambda: family_from_json('{"index": ["a"]}'), ValueError,
                              'family document needs "index" and "stalks" entries'),
    "family-without-index": (lambda: family_from_json('{"stalks": {}}'), ValueError,
                             'family document needs "index" and "stalks" entries'),
    "ring-multi-digit": (lambda: parse_ring_formula("w0 = 10"), FormulaSyntaxError,
                         "only the ring constants 0 and 1 are allowed (line 1, column 6)"),
    "boole-multi-digit": (lambda: parse_boole_formula("v0 = v1 and\n  v2 = 10"),
                          FormulaSyntaxError,
                          "only the constants 0 and 1 are allowed (line 2, column 8)"),
    # primes, corpus
    "valuation-of-0": (lambda: valuation(0, 3), ValueError, "valuation of 0 is undefined"),
    "unknown-corpus-label": (lambda: corpus_field("no-such-field"), KeyError,
                             "no corpus field labeled 'no-such-field'"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    call, exc_type, message = REFUSALS[case]
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert message in str(info.value)


def test_boole_multi_digit_carries_line_and_column():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_boole_formula("v0 = 10")
    assert (info.value.line, info.value.column) == (1, 6)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "contents", ["# a comment only\n", "label: lonely\n\n# no polynomial follows\n", ""]
)
def test_field_file_without_a_polynomial_line(tmp_path, capsys, contents):
    path = tmp_path / "field.txt"
    path.write_text(contents, encoding="utf-8")
    code, out, err = run(capsys, "split", str(path), "--prime", "3")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"error: {path}: no polynomial line found\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_family_path(tmp_path, capsys, kind):
    path = tmp_path / "missing.json" if kind == "missing" else tmp_path
    code, out, err = run(capsys, "fv-eval", "--family", str(path), "--psi", "v0 = v0")
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: cannot read family file: ")
    assert err.endswith(f"{str(path)!r}\n")
