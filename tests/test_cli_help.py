"""The CLI's help and usage text, pinned byte for byte at 80 columns.

A change to the parser (building it once, or only the chosen subcommand's
parser) must leave these bytes alone; a failure here prints the diff.
"""

import pytest

from adelic.cli import main

TOP_HELP = """\
usage: adelic [-h] [--corpus]
              {split,spectrum,invariants,equiv,adele-iso,fv-eval} ...

prime splitting, adelic invariants, and generalized products

positional arguments:
  {split,spectrum,invariants,equiv,adele-iso,fv-eval}
    split               decomposition of one prime in a field
    spectrum            splitting types of all primes up to a bound
    invariants          signature, degree detection, distinguisher
    equiv               bounded arithmetic-equivalence verdict
    adele-iso           adele-ring comparison verdict
    fv-eval             evaluate a generalized sentence over a family

options:
  -h, --help            show this help message and exit
  --corpus              run the built-in golden suite and exit
"""

SUBCOMMAND_HELP = {
    "split": """\
usage: adelic split [-h] --prime PRIME [--format {text,json}] field

positional arguments:
  field

options:
  -h, --help            show this help message and exit
  --prime PRIME
  --format {text,json}  output format
""",
    "spectrum": """\
usage: adelic spectrum [-h] [--bound BOUND] [--format {text,json}] field

positional arguments:
  field

options:
  -h, --help            show this help message and exit
  --bound BOUND
  --format {text,json}  output format
""",
    "invariants": """\
usage: adelic invariants [-h] [--bound BOUND] [--format {text,json}] field

positional arguments:
  field

options:
  -h, --help            show this help message and exit
  --bound BOUND
  --format {text,json}  output format
""",
    "equiv": """\
usage: adelic equiv [-h] [--bound BOUND] [--format {text,json}] field1 field2

positional arguments:
  field1
  field2

options:
  -h, --help            show this help message and exit
  --bound BOUND
  --format {text,json}  output format
""",
    "adele-iso": """\
usage: adelic adele-iso [-h] [--bound BOUND] [--format {text,json}]
                        field1 field2

positional arguments:
  field1
  field2

options:
  -h, --help            show this help message and exit
  --bound BOUND
  --format {text,json}  output format
""",
    "fv-eval": """\
usage: adelic fv-eval [-h] --family FAMILY --psi PSI [--theta THETA]
                      [--elements ELEMENTS] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --family FAMILY       JSON family file
  --psi PSI             Boolean-side formula
  --theta THETA         ring formula (repeatable)
  --elements ELEMENTS   JSON list of global elements (label -> code maps);
                        defaults to zeros
  --format {text,json}  output format
""",
}


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main, counting argparse's SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_top_level_help(capsys):
    assert run(capsys, "--help") == (0, TOP_HELP, "")


def test_no_arguments_prints_help_and_exits_2(capsys):
    assert run(capsys) == (2, TOP_HELP, "")


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_HELP))
def test_subcommand_help(capsys, command):
    assert run(capsys, command, "--help") == (0, SUBCOMMAND_HELP[command], "")


def test_missing_required_option_prints_usage_on_stderr(capsys):
    expected_err = (
        "usage: adelic split [-h] --prime PRIME [--format {text,json}] field\n"
        "adelic split: error: the following arguments are required: --prime\n"
    )
    assert run(capsys, "split", "x") == (2, "", expected_err)
