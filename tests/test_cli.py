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
    code, out, _ = run(capsys, "split", "x^4-4*x^2+36", "--prime", "2")
    assert code == 3


def test_split_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "split", "x^2 - y", "--prime", "7")
    assert code == 2 and "error" in err
    # a coefficient past the 4,300 digits that int() converts
    code, out, err = run(capsys, "split", "x^2 - " + "7" * 5000, "--prime", "2")
    assert code == 2 and out == "" and "position 6" in err
    assert len(err.encode()) < 300 and err.startswith("error: 'x^2 - 777")


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


@pytest.mark.parametrize(
    "family, elements",
    [
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
        (FV_FAMILY, "not json"),
        (FV_FAMILY, '[{"a": 1}]'),
        (FV_FAMILY, '{"a": 1, "b": 1}'),
        (FV_FAMILY, "[5]"),
        (FV_FAMILY, '[{"a": 99, "b": 1}]'),
        (FV_FAMILY, '[{"a": -1, "b": 1}]'),
        (FV_FAMILY, '[{"a": "1", "b": 1}]'),
        (FV_FAMILY, '[{"a": 1.0, "b": 1}]'),
        (FV_FAMILY, '[{"a": true, "b": 1}]'),
    ],
)
def test_fv_eval_input_errors(tmp_path, capsys, family, elements):
    fam = tmp_path / "family.json"
    fam.write_text(family)
    argv = ["fv-eval", "--family", str(fam), "--psi", "v0 = 1", "--theta", "w0 = w0"]
    if elements is not None:
        argv += ["--elements", elements]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


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
