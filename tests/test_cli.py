"""End-to-end tests of the command-line driver."""

import importlib
import json
import random
import time

import pytest

from adelic.cli import (
    _EXIT_CODES,
    EXIT_CAP,
    EXIT_OTHER,
    EXIT_PARSE,
    EXIT_UNDETERMINED,
    _CliError,
    _exit_code,
    main,
)
from adelic.exactpoly import MAX_DEGREE, IntPoly
from adelic.fv.formulas import MAX_FORMULA_TOKENS
from adelic.primes import MAX_PRIME_BOUND, PROVEN_PRIMALITY_BOUND, primes_up_to


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split_text(capsys):
    code, out, _ = run(capsys, "split", "x^2-2", "--prime", "7")
    assert code == 0
    assert "(1,1)(1,1) via Kummer" in out
    assert "sum e*f = 2" in out


def test_split_newton_route(capsys):
    code, out, _ = run(capsys, "split", "x^3+x^2-2*x+8", "--prime", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "NewtonPolygon"
    assert data["factors"] == [[1, 1], [1, 1], [1, 1]]


def test_split_degree_one(capsys):
    code, out, _ = run(capsys, "split", "x", "--prime", "5")
    assert code == 0 and "(1,1)" in out


def test_split_undetermined_exit_code(capsys):
    code, out, _ = run(capsys, "split", "x^4+12", "--prime", "2")
    assert code == 3


def test_split_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "split", "x^2 - y", "--prime", "7")
    assert code == 2 and "error" in err
    # a coefficient past the 4,300 digits that int() converts
    code, out, err = run(capsys, "split", "x^2 - " + "7" * 5000, "--prime", "2")
    assert code == 2 and out == "" and "position 6" in err
    assert len(err.encode()) < 300 and err.startswith("error: 'x^2 - 777")
    # only ASCII digits make integer literals
    for text, position in (("x^\u00b2+1", 2), ("\u00b2*x+1", 0), ("x^\u0663+1", 2)):
        code, out, err = run(capsys, "split", text, "--prime", "3")
        assert code == 2 and out == ""
        assert f"unexpected character {text[position]!r} (at position {position})" in err


def test_split_composite_prime_rejected(capsys):
    code, _, err = run(capsys, "split", "x^2-2", "--prime", "6")
    assert code == 2


def test_split_rejects_psi12_pseudoprime(capsys):
    # 399165290221 * 798330580441 passes the Miller-Rabin bases 2..37
    code, out, err = run(capsys, "split", "x^2 - 2", "--prime", "318665857834031151167461")
    assert code == 2 and out == "" and "not prime" in err


def test_split_refuses_unproven_prime(capsys):
    # psi_13 passes every witness 2..41; primality is not proven at or above it
    code, out, err = run(capsys, "split", "x^2 - 2", "--prime", "3317044064679887385961981")
    assert code == 4 and out == "" and "proves primality only below" in err


def test_field_file_with_label(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_text("# a comment\nlabel: my-field\nx^2 - 2\n")
    code, out, _ = run(capsys, "spectrum", str(path), "--bound", "10")
    assert code == 0
    assert "my-field" in out


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "x^2-2", "--bound", "10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {"type": [1, 1], "primes": [7]} in data["entries"]
    assert data["excluded"] == []


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "x^3-x-1", "--bound", "100", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == [1, 1]
    assert data["detected_degree"] == 3
    assert data["aq_distinguisher"] == []


def test_equiv_json(capsys):
    code, out, _ = run(capsys, "equiv", "x^2-2", "x^2-3", "--bound", "100", "--format", "json")
    assert code == 0  # a NotEquivalent verdict is data, not an error
    data = json.loads(out)
    assert data["kind"] == "NotEquivalent"
    assert data["witness"] == 7
    assert data["type_k"] == [1, 1] and data["type_l"] == [2]


def test_equiv_reflexive(capsys):
    code, out, _ = run(capsys, "equiv", "x^2-2", "x^2-2", "--bound", "100")
    assert code == 0
    assert "EquivalentUpToBound" in out


def test_adele_iso_json(capsys):
    code, out, _ = run(capsys, "adele-iso", "x^2-2", "x^2-3", "--bound", "100", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "NotIsomorphic"
    assert data["witness"] == 7
    assert set(data) >= {"kind", "witness", "matching", "excluded_primes", "bound"}


def test_adele_iso_reflexive(capsys):
    code, out, _ = run(capsys, "adele-iso", "x^2-2", "x^2-2", "--bound", "100")
    assert code == 0
    assert "IsomorphicCertified" in out


def test_adele_iso_unramified_factor_past_ring_cap(capsys):
    # L(x) = K(x + 1); at 79 both have an unramified factor with f = 2, whose
    # residue ring at truncation 2 has order 79^4, above the default ring cap
    code, out, _ = run(
        capsys,
        "adele-iso",
        "x^4 + 9*x^3 + 9*x^2 - 6*x - 3",
        "x^4 + 13*x^3 + 42*x^2 + 43*x + 10",
        "--bound",
        "100",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "IsomorphicModuloAssumption"
    expected = {"prime": 79, "e": 1, "f": 2, "certificate": "unramified-residue-ring", "truncation": 2}
    assert expected in data["matching"]


def test_adele_iso_ring_cap_is_fixed(capsys):
    # x^8 - 2 and its shift by 1 need a ring of order 2^27 at p = 2
    # (keating_bound(2, 8) = 27); the 2^20 cap cannot be raised from the CLI
    fields = ("x^8 - 2", "x^8 + 8*x^7 + 28*x^6 + 56*x^5 + 70*x^4 + 56*x^3 + 28*x^2 + 8*x - 1")
    # a small value, so that an option that came back would fail here fast
    with pytest.raises(SystemExit) as exc:
        main(["adele-iso", *fields, "--ring-cap", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ring-cap" in capsys.readouterr().err
    code, out, _ = run(capsys, "adele-iso", *fields, "--bound", "20")
    assert code == 0
    assert "assumed p=2 (e=8, f=1): residue-ring order exceeds the cap" in out


def test_fv_eval(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(
        '{"index": ["a", "b", "c"], "stalks": {"a": {"kind": "Zmod", "m": 2}, '
        '"b": {"kind": "Zmod", "m": 3}, "c": {"kind": "Zmod", "m": 5}}}'
    )
    code, out, _ = run(capsys, "fv-eval", "--family", str(fam), "--psi", "v0 = 1", "--theta", "w0 = w0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(
        capsys,
        "fv-eval",
        "--family",
        str(fam),
        "--psi",
        "not (v0 = 1)",
        "--theta",
        "w0 + w0 = 0",
        "--elements",
        '[{"a": 1, "b": 1, "c": 1}]',
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "fv-eval", "--family", str(fam), "--psi", "v0 = 0", "--theta", "w0 = w0")
    assert code == 0 and out.strip() == "false"


def test_fv_eval_parse_error(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text('{"index": ["a"], "stalks": {"a": {"kind": "Zmod", "m": 2}}}')
    code, _, err = run(capsys, "fv-eval", "--family", str(fam), "--psi", "v0 == 1", "--theta", "w0 = w0")
    assert code == 2


FV_FAMILY = '{"index": ["a", "b"], "stalks": {"a": {"kind": "Zmod", "m": 12}, "b": {"kind": "Zmod", "m": 2}}}'


FV_INPUT_ERRORS = [
    ('{"index": 5, "stalks": {}}', None),
    ('{"index": ["a"], "stalks": {"a": 5}}', None),
    ('{"index": [1], "stalks": {"1": {"kind": "Zmod", "m": 2}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "Zmod", "m": [4]}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "Zmod", "m": 4.7}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "Zmod", "m": "4"}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "GF", "p": 2.0, "f": 2}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "GF", "p": 2, "f": true}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "Eisenstein", "p": 2, "e": 2, "s": 2, "coeffs": [2.9, 0, 1]}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "Eisenstein", "p": 2, "e": 2, "s": 2, "coeffs": "201"}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "Eisenstein", "p": 2, "e": 2, "s": 2, "coeffs": [2, 0, 1], "f": true}}}', None),
    # e = 1 needs no polynomial, but one that is given must be Eisenstein of degree e
    ('{"index": ["a"], "stalks": {"a": {"kind": "Eisenstein", "p": 5, "e": 1, "s": 2, "coeffs": [7, 7, 7]}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "Eisenstein", "p": 5, "e": 1, "s": 2, "coeffs": [7, 1]}}}', None),
    ('{"index": ["a"], "stalks": {"a": {"kind": "Eisenstein", "p": 5, "e": 1, "s": 2, "coeffs": [25, 1]}}}', None),
    (FV_FAMILY, "not json"),
    (FV_FAMILY, '[{"a": 1}]'),
    (FV_FAMILY, '{"a": 1, "b": 1}'),
    (FV_FAMILY, "[5]"),
    (FV_FAMILY, '[{"a": 99, "b": 1}]'),
    (FV_FAMILY, '[{"a": -1, "b": 1}]'),
    (FV_FAMILY, '[{"a": "1", "b": 1}]'),
    (FV_FAMILY, '[{"a": 1.0, "b": 1}]'),
    (FV_FAMILY, '[{"a": true, "b": 1}]'),
]


# A variable index past the interpreter's int-conversion limit of 4,300 digits.
LONG_INDEX = "9" * 5000


@pytest.mark.parametrize(
    "family, elements, theta, psi",
    # the earlier cases keep the ids they had without a theta or a psi
    [pytest.param(family, elements, "w0 = w0", "v0 = 1", id=f"{family}-{elements}")
     for family, elements in FV_INPUT_ERRORS]
    + [pytest.param(FV_FAMILY, None, theta, "v0 = 1", id=f"{FV_FAMILY}-None-{theta}")
       for theta in ("y = 0", "exists y (z = 0)")]
    + [pytest.param(FV_FAMILY, None, f"w{LONG_INDEX} = 0", "v0 = 1", id="long free w-index"),
       pytest.param(FV_FAMILY, None, "w0 = 0", f"v{LONG_INDEX} = 1", id="long free v-index"),
       pytest.param(FV_FAMILY, None, "w0 = 0", f"exists v{LONG_INDEX} (v0 sub v{LONG_INDEX})",
                    id="long quantified v-index"),
       # superscript digits pass str.isdigit but not int()
       pytest.param(FV_FAMILY, None, "w\u00b2 = 0", "v0 = 1", id="superscript w-index"),
       pytest.param(FV_FAMILY, None, "w0 = 0", "exists v\u00b2 (v0 = 1)", id="superscript v-index"),
       # other scripts' decimal digits pass str.isdecimal, and int() reads them
       pytest.param(FV_FAMILY, None, "w\u0663 = 0", "v0 = 1", id="arabic-indic w-index"),
       pytest.param(FV_FAMILY, None, "w0 = 0", "exists v\u0661 (v\u0661 sub v0)",
                    id="arabic-indic quantified v-index"),
       pytest.param(FV_FAMILY, '[{"a": 1, "b": 1}]', "w1 = w0", "v0 = 1", id="elements lack w1"),
       pytest.param(FV_FAMILY, '[{"a": 1, "b": 1}]', "w99999999999 = 0", "v0 = 1",
                    id="elements lack w99999999999")],
)
def test_fv_eval_input_errors(tmp_path, capsys, family, elements, theta, psi):
    fam = tmp_path / "family.json"
    fam.write_text(family)
    argv = ["fv-eval", "--family", str(fam), "--psi", psi, "--theta", theta]
    if elements is not None:
        argv += ["--elements", elements]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_fv_eval_binds_only_the_indices_that_occur(tmp_path, capsys):
    """A large free index needs one default element, not one per smaller
    index, so the run takes no time that grows with the index."""
    fam = tmp_path / "family.json"
    fam.write_text('{"index": ["a"], "stalks": {"a": {"kind": "Zmod", "m": 2}}}')
    start = time.perf_counter()
    code, out, _ = run(capsys, "fv-eval", "--family", str(fam), "--psi", "v0 = 1",
                       "--theta", "w99999999999 = 0")
    assert code == 0 and out.strip() == "true"
    assert time.perf_counter() - start < 3


def test_fv_eval_non_ascii_digit_names_give_their_position(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(FV_FAMILY)
    for theta, psi, where in (
        ("w\u0663 = 0", "v0 = 1", "(line 1, column 1)"),
        ("w0 = 0", "exists v\u0661 (v\u0661 sub v0)", "(line 1, column 8)"),
    ):
        code, out, err = run(capsys, "fv-eval", "--family", str(fam), "--psi", psi, "--theta", theta)
        assert code == 2 and out == "" and err.rstrip().endswith(where), err


def test_fv_eval_unbound_variable_names_its_position(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(FV_FAMILY)
    for theta, where in (("y = 0", "(line 1, column 1)"), ("exists y (z = 0)", "(line 1, column 11)")):
        code, out, err = run(capsys, "fv-eval", "--family", str(fam), "--psi", "v0 = 1", "--theta", theta)
        assert code == 2 and out == "" and "unbound quantified variable" in err and where in err


@pytest.mark.parametrize(
    "option, text",
    [
        ("--theta", "(" * 400 + "w0" + ")" * 400 + " = w0"),
        ("--psi", "not " * 1000 + "v0 = 1"),
        ("--theta", "w0 + " * 2999 + "w0 = w0"),
        ("--psi", " and ".join(["v0 = 1"] * 3000)),
        ("--psi", "not " * (MAX_FORMULA_TOKENS - 2) + "v0 = 1"),
    ],
)
def test_fv_eval_formula_length_cap(tmp_path, capsys, option, text):
    fam = tmp_path / "family.json"
    fam.write_text(FV_FAMILY)
    formulas = {"--psi": "v0 = 1", "--theta": "w0 = w0", option: text}
    argv = ["fv-eval", "--family", str(fam)] + [a for kv in formulas.items() for a in kv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CAP and out == "" and "exceeds the cap" in err


def test_fv_eval_formulas_at_the_length_cap(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(FV_FAMILY)
    deepest = "(" * ((MAX_FORMULA_TOKENS - 3) // 2) + "w0 = w0" + ")" * ((MAX_FORMULA_TOKENS - 3) // 2)
    longest = "not " * (MAX_FORMULA_TOKENS - 3) + "v0 = 1"
    code, out, _ = run(capsys, "fv-eval", "--family", str(fam), "--psi", longest, "--theta", deepest)
    assert code == 0 and out.strip() == "false"


@pytest.mark.parametrize(
    "option, text",
    [
        ("--theta", "(" * (MAX_FORMULA_TOKENS - 1) + "w0"),
        ("--psi", "(" * (MAX_FORMULA_TOKENS - 1) + "v0"),
    ],
)
def test_fv_eval_unclosed_parentheses_at_the_length_cap(tmp_path, capsys, option, text):
    fam = tmp_path / "family.json"
    fam.write_text(FV_FAMILY)
    formulas = {"--psi": "v0 = 1", "--theta": "w0 = w0", option: text}
    argv = ["fv-eval", "--family", str(fam)] + [a for kv in formulas.items() for a in kv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "line 1" in err


def eisenstein_stalk(e: int) -> dict:
    """An Eisenstein stalk of degree e over Z_2 with s = 2, order 4."""
    return {"kind": "Eisenstein", "p": 2, "e": e, "s": 2, "coeffs": [2] + [0] * (e - 1) + [1]}


@pytest.mark.parametrize(
    "stalk, message",
    [
        ({"kind": "Unramified", "p": 3, "f": 1, "s": 100000000}, "stalk order 3^100000000 > 4096"),
        ({"kind": "GF", "p": 2, "f": 400}, "stalk order 2^400 > 4096"),
        ({"kind": "Eisenstein", "p": 2, "e": 2, "s": 10**9, "coeffs": [2, 0, 1]},
         "stalk order 2^1000000000 > 4096"),
        ({"kind": "Zmod", "m": 4097}, "stalk order 4097 > 4096"),
        # small orders, but the multiplication table grows as e^2
        (eisenstein_stalk(MAX_DEGREE + 1), f"Eisenstein degree {MAX_DEGREE + 1} > {MAX_DEGREE}"),
        (eisenstein_stalk(12_800), f"Eisenstein degree 12800 > {MAX_DEGREE}"),
    ],
)
def test_fv_eval_refuses_oversized_stalk_from_its_description(tmp_path, capsys, stalk, message):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"index": ["a"], "stalks": {"a": stalk}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "fv-eval", "--family", str(fam), "--psi", "v0 = 1", "--theta", "w0 = w0")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and message in err


def test_fv_eval_builds_an_eisenstein_stalk_at_the_degree_cap(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"index": ["a"], "stalks": {"a": eisenstein_stalk(MAX_DEGREE)}}))
    code, out, _ = run(capsys, "fv-eval", "--family", str(fam), "--psi", "v0 = 1", "--theta", "w0 = w0")
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("where", ["family", "elements"])
def test_fv_eval_refuses_deeply_nested_json(tmp_path, capsys, where):
    """5,000 nested lists pass the interpreter's recursion limit inside the
    JSON decoder: malformed input, not a traceback."""
    nested = "[" * 5000
    fam = tmp_path / "family.json"
    fam.write_text(nested if where == "family" else FV_FAMILY)
    argv = ["fv-eval", "--family", str(fam), "--psi", "v0 = 1", "--theta", "w0 = w0"]
    if where == "elements":
        argv += ["--elements", nested]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1 and "nested too deeply" in err


# A 100,000-character index label on a one-stalk family.
LONG_LABEL = "a" * 100_000


@pytest.mark.parametrize(
    "stalk, elements, field",
    [
        pytest.param({"kind": "Zmod", "m": 2}, "[{}]", "--elements[0] has no code for label",
                     id="long label without a code"),
        pytest.param({"kind": "Eisenstein", "p": 2, "e": 2, "s": 2, "coeffs": [1] * 12_800 + [1.5]},
                     None, "stalk field 'coeffs'", id="long coeffs with a float"),
        pytest.param({"kind": "Zmod", "m": 2}, json.dumps([{LONG_LABEL: int("7" * 4000)}]),
                     "--elements[0]['aaa", id="long label with a long code"),
    ],
)
def test_fv_eval_errors_cut_the_values_they_echo(tmp_path, capsys, stalk, elements, field):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"index": [LONG_LABEL], "stalks": {LONG_LABEL: stalk}}))
    argv = ["fv-eval", "--family", str(fam), "--psi", "v0 = 1", "--theta", "w0 = w0"]
    if elements is not None:
        argv += ["--elements", elements]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.encode()) < 1000 and field in err


def _error_class(qualname: str) -> type:
    module, _, name = qualname.rpartition(".")
    return getattr(importlib.import_module(module), name)


def test_exit_code_table():
    for qualname in _EXIT_CODES:
        cls = _error_class(qualname)
        assert isinstance(cls, type) and issubclass(cls, ValueError), qualname
    kept = {
        "adelic.exactpoly.PolyParseError": EXIT_PARSE,
        "adelic.fv.FormulaSyntaxError": EXIT_PARSE,
        "adelic.fv.ArityMismatchError": EXIT_PARSE,
        "adelic.splitting.UndeterminedError": EXIT_UNDETERMINED,
        "adelic.invariants.UnresolvedPrimeError": EXIT_UNDETERMINED,
        "adelic.fv.EvalCapError": EXIT_CAP,
        "adelic.finring.RingCapExceededError": EXIT_CAP,
        "adelic.primes.PrimalityCapError": EXIT_CAP,
        "adelic.primes.PrimeBoundCapError": EXIT_CAP,
        "adelic.exactpoly.DegreeCapError": EXIT_CAP,
    }
    for qualname, code in kept.items():
        cls = _error_class(qualname)
        assert _exit_code(cls.__new__(cls)) == code, qualname
        subclass = type("Sub", (cls,), {})
        assert _exit_code(subclass.__new__(subclass)) == code, qualname
    assert _exit_code(ValueError("plain")) == EXIT_OTHER
    assert _exit_code(_CliError("own code", 7)) == 7


def test_corpus_flag_runs(capsys):
    code, out, _ = run(capsys, "--corpus")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_corpus_deterministic(capsys):
    _, out1, _ = run(capsys, "--corpus")
    _, out2, _ = run(capsys, "--corpus")
    assert out1 == out2


def test_json_round_trip(capsys):
    _, out, _ = run(capsys, "equiv", "x^2-2", "x^2-3", "--format", "json")
    data = json.loads(out)
    assert json.loads(json.dumps(data, sort_keys=True)) == data


def test_degree_cap_exit_code(capsys):
    code, out, err = run(capsys, "split", f"x^{MAX_DEGREE + 1}", "--prime", "2")
    assert code == 4 and out == "" and "exceeds the cap" in err
    code, out, err = run(capsys, "split", "x^40*x^40", "--prime", "2")
    assert code == 4 and out == "" and "exceeds the cap" in err
    # past the 4,300 digits that int() converts, and padded past them with zeros
    code, out, err = run(capsys, "split", "x^" + "9" * 5000, "--prime", "2")
    assert code == 4 and out == "" and "exceeds the cap" in err
    padded = run(capsys, "split", "x^" + "0" * 4999 + "3 - 2", "--prime", "5")
    assert padded[0] == 0 and padded == run(capsys, "split", "x^3 - 2", "--prime", "5")
    code, out, _ = run(capsys, "split", f"x^{MAX_DEGREE} - 2", "--prime", "3")
    assert code == 0 and f"= [K:Q] = {MAX_DEGREE}" in out


def test_degree_cap_exit_code_from_field_file(tmp_path, capsys):
    field = tmp_path / "big.field"
    field.write_text("label: big\nx^1000000000 + 1\n")
    code, out, err = run(capsys, "split", str(field), "--prime", "2")
    assert code == 4 and out == "" and "exceeds the cap" in err


def test_unreadable_field_file_exit_code(tmp_path, capsys):
    # a directory, and a file that is not UTF-8
    latin1 = tmp_path / "latin1.field"
    latin1.write_bytes("label: caf\u00e9\nx^2 - 2\n".encode("latin-1"))
    for path in (tmp_path, latin1):
        code, out, err = run(capsys, "split", str(path), "--prime", "7")
        assert code == EXIT_PARSE and out == "" and "cannot read field file" in err, path


@pytest.mark.parametrize("command", ["spectrum", "invariants", "equiv", "adele-iso"])
def test_bound_below_two_exit_code(capsys, command):
    fields = ["x^2+1"] if command in ("spectrum", "invariants") else ["x^2+1", "x^2-2"]
    for bound in ("1", "-5"):
        code, out, err = run(capsys, command, *fields, "--bound", bound)
        assert code == EXIT_PARSE and out == "" and "bound must be at least 2" in err


def test_bound_cap_exit_code(capsys):
    code, out, err = run(capsys, "spectrum", "x^2+1", "--bound", str(MAX_PRIME_BOUND + 1))
    assert code == 4 and out == "" and "exceeds the cap" in err
    code, _, err = run(capsys, "invariants", "x^2+1", "--bound", str(MAX_PRIME_BOUND + 1))
    assert code == 4 and "exceeds the cap" in err


def _fuzz_poly(rng: random.Random) -> str:
    """Random polynomial text: degree 1-40, coefficients up to 10^30 in size,
    sometimes non-monic, sometimes a product of two factors."""

    def part(degree: int) -> IntPoly:
        lead = 1 if rng.random() < 0.7 else rng.randint(2, 10**30)
        return IntPoly([rng.randint(-(10**30), 10**30) for _ in range(degree)] + [lead])

    degree = rng.randint(1, 40)
    if degree >= 2 and rng.random() < 0.3:
        k = rng.randint(1, degree - 1)
        return (part(k) * part(degree - k)).to_text()
    return part(degree).to_text()


def _main_exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a malformed option with exit 2
        return exc.code


def test_fuzz_main_exit_codes(capsys):
    """Seeded random fields and edge strings through main(): every case ends
    in a defined exit code, never an uncaught exception or a hang."""
    rng = random.Random(20261018)
    small_primes = primes_up_to(1000)
    cases = []
    for _ in range(20):
        text = _fuzz_poly(rng)
        for p in (2, rng.choice(small_primes), 10**9 + 7):
            cases.append(["split", text, "--prime", str(p)])
        cases.append(["invariants", text, "--bound", "30"])
    edge_cases = [
        (["split", "x^1000000000", "--prime", "2"], 4),
        (["spectrum", "x^2+1", "--bound", "10^12"], 2),
        (["spectrum", "x^2+1", "--bound", str(10**12)], 4),
        (["split", "", "--prime", "2"], 2),
        (["split", "y^2", "--prime", "2"], 2),
        (["split", "2*x^2+1", "--prime", "2"], 2),
        (["split", "x^2+1", "--prime", "4"], 2),
        (["split", "x^2+1", "--prime", str(PROVEN_PRIMALITY_BOUND)], 4),
    ]
    start = time.perf_counter()
    for argv in cases:
        assert _main_exit_code(argv) in (0, 2, 3, 4), argv
    for argv, want in edge_cases:
        assert _main_exit_code(argv) == want, argv
    capsys.readouterr()
    assert time.perf_counter() - start < 60


# Atoms of each grammar; y is bound only when a quantifier over y encloses it
# (a quantifier takes everything to its right unless parenthesized).
_FUZZ_ATOMS = {
    "ring": (("w0", "=", "w0"), ("w0", "+", "w1", "=", "0"), ("y", "*", "y", "=", "w0"),
             ("(", "w1", "-", "1", ")", "*", "w0", "=", "1")),
    "boole": (("v0", "=", "1"), ("v1", "sub", "v0"), ("Fin", "(", "v2", ")"), ("v2", "=", "v0"),
              ("v0", "=", "0")),
}
_FUZZ_WORDS = ("w0", "w1", "v0", "v1", "y", "z", "0", "1", "2", "(", ")", "=", "+", "-", "*",
               "->", "and", "or", "not", "exists", "forall", "sub", "Fin", "#")


def _fuzz_formula(rng: random.Random, grammar: str) -> str:
    """Random formula text: atoms of the grammar joined into a chain and
    wrapped in parentheses, negations and quantifiers (often only in
    parentheses, the parser's deepest recursion), up to a random length
    that is often near MAX_FORMULA_TOKENS or up to five times past it; one in
    five leaves every parenthesis it opens unclosed, and one in three has a
    random token replaced, inserted or deleted."""
    atoms = _FUZZ_ATOMS[grammar]
    cap = MAX_FORMULA_TOKENS
    target = rng.choice((rng.randint(1, 30), rng.randint(cap - 30, cap + 10), rng.randint(cap, 5 * cap)))
    nesting = rng.choice((rng.random(), 1.0))  # chance to wrap rather than extend the chain
    paren = rng.choice((0.5, 1.0))  # chance that a wrap is a parenthesis rather than a 'not'
    close = [")"] if rng.random() < 0.8 else []
    # Boolean quantifiers enumerate all 2^|I| subsets, so their nesting is
    # kept at 3: each further level multiplies the work by 2^|I|.
    quantifiers = 3 if grammar == "boole" else 6
    tokens = list(rng.choice(atoms))
    while len(tokens) < target:
        if rng.random() >= nesting:
            tokens += [rng.choice(("and", "or", "->"))] + list(rng.choice(atoms))
        elif quantifiers and rng.random() < 0.1:
            quantifiers -= 1
            var = rng.choice(("y", "y", "z")) if grammar == "ring" else rng.choice(("v1", "v2", "v3"))
            body = ["("] + tokens + close if rng.random() < 0.5 else tokens
            tokens = [rng.choice(("exists", "forall")), var] + body
        else:
            tokens = (["not"] + tokens) if rng.random() >= paren else (["("] + tokens + close)
    if rng.random() < 1 / 3:
        i = rng.randrange(len(tokens))
        edit = rng.randrange(3)
        if edit == 0:
            tokens[i] = rng.choice(_FUZZ_WORDS)
        elif edit == 1:
            tokens.insert(i, rng.choice(_FUZZ_WORDS))
        else:
            del tokens[i]
    return " ".join(tokens)


def test_fuzz_fv_eval_exit_codes(tmp_path, capsys):
    """Seeded random ring and Boolean formulas through main(), valid and
    invalid, nested deep and chained long up to past the length cap: every
    case ends in exit 0, 2 or 4, raising nothing, within a time bound."""
    fam = tmp_path / "family.json"
    fam.write_text('{"index": ["a", "b"], "stalks": {"a": {"kind": "Zmod", "m": 3}, '
                   '"b": {"kind": "GF", "p": 2, "f": 1}}}')
    rng = random.Random(20261019)
    thetas = ["--theta", "w0 = w0", "--theta", "w0 = 0", "--theta", "exists y (y * y = w0 + 1)"]
    cases = []
    for _ in range(80):
        cases.append(["--psi", "v0 = 1", "--theta", _fuzz_formula(rng, "ring")])
        cases.append(["--psi", _fuzz_formula(rng, "boole")] + thetas)
    # Variable indices of 1 to 6,000 digits, free and quantified, on both
    # sides of the interpreter's int-conversion limit of 4,300 digits.
    index_rng = random.Random(4300)
    lengths = (1, 2, 11, 4299, 4300, 4301, 6000) + tuple(index_rng.randint(1, 6000) for _ in range(8))
    for digits in lengths:
        k = "".join(index_rng.choices("0123456789", k=digits))
        cases.append(["--psi", "v0 = 1", "--theta", f"w{k} = 0"])
        cases.append(["--psi", "v0 = 1", "--theta", f"exists y (y * w{k} = w{k})"])
        cases.append(["--psi", "v0 = 1", "--theta", f"exists w{k} (w{k} = 0)"])
        cases.append(["--psi", f"v{k} sub v0"] + thetas)
        cases.append(["--psi", f"forall v{k} (v{k} sub v{k} and v0 sub v1)"] + thetas)
    codes = []
    start = time.perf_counter()
    for argv in cases:
        case_start = time.perf_counter()
        codes.append(_main_exit_code(["fv-eval", "--family", str(fam)] + argv))
        assert codes[-1] in (0, 2, 4), argv
        assert time.perf_counter() - case_start < 5, argv
    capsys.readouterr()
    assert {0, 2, 4} <= set(codes)
    assert time.perf_counter() - start < 60


def test_corpus_decomposes_each_field_at_each_prime_once(monkeypatch, capsys):
    # One pass over the primes <= 200 serves both the e*f sums and the
    # ramification check at good primes <= 100: 26 fields x 46 primes, plus
    # the reflexive adele verdict's two decompositions at p = 2.  The corpus
    # made 1,814 calls when it swept the good primes <= 100 a second time.
    import adelic.invariants as invariants
    import adelic.splitting as splitting

    from adelic.cli import run_corpus_checks

    calls = []
    decompose = splitting.decompose

    def counting_decompose(K, p):
        calls.append((K.min_poly, p))
        return decompose(K, p)

    monkeypatch.setattr(splitting, "decompose", counting_decompose)
    monkeypatch.setattr(invariants, "decompose", counting_decompose)
    lines, ok = run_corpus_checks()
    assert ok and lines[-1] == "all checks passed"
    assert len(calls) == 1198
    assert len(set(calls)) == 1196
