"""What a cold start loads: each command imports only the layers it runs,
and the package's public names resolve lazily to their home modules."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import adelic

# The child imports the same adelic as this process, installed or not.
SRC = os.path.dirname(os.path.dirname(adelic.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

# Imports adelic.cli, runs main on argv if any is given, and prints the adelic
# modules then loaded as the last stdout line.
PROBE = """
import json, sys
import adelic.cli
if len(sys.argv) > 1:
    adelic.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "adelic")))
"""


def loaded_modules(*argv: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, check=True, env=ENV
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_cli_loads_only_primes():
    assert loaded_modules() == {"adelic", "adelic.cli", "adelic.primes"}


def test_split_loads_no_invariants_finring_or_fv():
    mods = loaded_modules("split", "x^2-2", "--prime", "7")
    assert "adelic.splitting" in mods
    assert not any(m.startswith("adelic.fv") for m in mods)
    assert not mods & {"adelic.invariants", "adelic.finring"}


def test_fv_eval_loads_no_splitting_invariants_or_corpus(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text('{"index": ["a"], "stalks": {"a": {"kind": "Zmod", "m": 4}}}')
    mods = loaded_modules("fv-eval", "--family", str(fam), "--psi", "v0 = 1", "--theta", "w0 = w0")
    assert "adelic.fv.evaluate" in mods
    assert not mods & {"adelic.splitting", "adelic.invariants", "adelic.corpus"}


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["split", "x^2-2", "--prime", "7"], 0, "(1,1)(1,1) via Kummer"),
        (["split", "x^4+12", "--prime", "2"], 3, "undetermined"),
        (["split", "x^2-y", "--prime", "7"], 2, ""),
    ],
)
def test_python_m_adelic_passes_exit_code(argv, code, out):
    proc = subprocess.run([sys.executable, "-m", "adelic", *argv], capture_output=True, text=True, env=ENV)
    assert proc.returncode == code and out in proc.stdout


def test_public_names_resolve_to_their_home_modules():
    for name in adelic.__all__:
        value = getattr(adelic, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__ != "adelic" and getattr(home, name) is value, name
    assert set(adelic.__all__) <= set(dir(adelic))
    namespace = {}
    exec("from adelic import *", namespace)
    assert all(namespace[name] is getattr(adelic, name) for name in adelic.__all__)
    with pytest.raises(AttributeError):
        adelic.no_such_name
