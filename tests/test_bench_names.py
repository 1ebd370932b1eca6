"""The benchmark reaches into the library by name: every name it rebinds or
imports must exist, so that dropping one fails here rather than in a
benchmark run."""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str):
    """bench/<name>.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def imported_names():
    """(module, attr) for each `from adelic... import attr` in bench/*.py, and
    (module, None) for each `import adelic...`, wherever in a file it stands."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "adelic":
                names.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(
                    (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "adelic"
                )
    return sorted(names, key=str)


def resolves(module: str, attr: str | None) -> bool:
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    return attr is None or hasattr(found, attr)


def test_every_traced_name_resolves():
    tracing = load_bench("tracing")
    names = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTED]
    imported = imported_names()
    # the collector sees imports inside functions, such as the harness's
    # per-op reset
    assert ("adelic.splitting", "clear_decomposition_cache") in imported
    names += imported
    # RingOpCounter reads this one as an attribute of the module
    names.append(("adelic.finring", "FiniteRing"))
    missing = [f"{module}.{attr}" for module, attr in names if not resolves(module, attr)]
    assert missing == []


# Ring element ops that find_ring_isomorphism makes on a pair of order 121 at
# p = 11, the largest rings that adele-iso compares.  The search closes the
# same pairs however the arithmetic is done, so only a change of the search
# moves this count; calls that bypass the class methods, which RingOpCounter
# wraps, lower it.
RING_OPS_OF_THE_ORDER_121_SEARCH = 29_810


def test_ring_op_counter_sees_every_op_of_the_search():
    from adelic.exactpoly import parse_int_poly
    from adelic.finring import LocalQuotientRing, find_ring_isomorphism

    r1 = LocalQuotientRing(11, 2, 1, parse_int_poly("x^2-11"), 2)
    r2 = LocalQuotientRing(11, 2, 1, parse_int_poly("x^2+11*x+33"), 2)
    counter = load_bench("tracing").RingOpCounter()
    counter.install()
    try:
        iso = find_ring_isomorphism(r1, r2)
    finally:
        counter.uninstall()
    assert iso is not None
    assert counter.count == RING_OPS_OF_THE_ORDER_121_SEARCH


def test_every_workload_stalk_loads():
    """fv-eval's family files draw their stalks from the workload's
    _random_stalk: each must pass the loader's caps with the order the
    workload expects, so that a new cap fails here rather than turning
    benchmark ops into failures."""
    from adelic.fv import stalk_from_spec

    workloads = load_bench("workloads")
    rng = random.Random(25)
    for _ in range(2000):
        spec = workloads._random_stalk(rng)
        assert stalk_from_spec(spec).order == workloads.stalk_facts(spec)["order"], spec


# One pair (and bound) for each kind of NotIsomorphic reason that adele-iso
# gives: a splitting-type witness, a signature mismatch, local (e, f)
# multisets that differ, and residue rings that differ.
REFUTED_PAIRS = (
    ("x^2-2", "x^2-3", 1000),
    ("x^2-2", "x^2+2", 2),
    ("x^2-5", "x^2-2", 2),
    ("x^2-3", "x^2-7", 5),
)


@pytest.mark.parametrize("f, g, bound", REFUTED_PAIRS)
def test_bench_checker_recognises_every_refutation(monkeypatch, f, g, bound):
    """check.py fails an adele-iso op whose NotIsomorphic reason it does not
    recognise, so a reworded reason fails here rather than in a benchmark run."""
    from adelic.cli import main
    from adelic.exactpoly import parse_int_poly

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # check.py imports the workload module by its bare name
    monkeypatch.setitem(sys.modules, "workloads", load_bench("workloads"))
    check = load_bench("check")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["adele-iso", f, g, "--bound", str(bound), "--format", "json"]) == 0
    data = json.loads(out.getvalue())
    assert data["kind"] == "NotIsomorphic"
    ref = {"kind": "distinct", "polys": [parse_int_poly(f).coeffs, parse_int_poly(g).coeffs],
           "bound": bound}
    assert check._check_adele(0, ref, data, Counter()) is None
