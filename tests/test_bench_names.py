"""The benchmark reaches into the library by name: every name it rebinds or
imports must exist, so that dropping one fails here rather than in a
benchmark run."""

import ast
import contextlib
import hashlib
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


# Ring element ops that the first cycle of fv-eval at seed 1 makes, family
# construction included.  Only a change of which atoms a formula evaluates,
# or in what order it stops, moves this count; calls that bypass the class
# methods, which RingOpCounter wraps, lower it.
RING_OPS_OF_THE_FIRST_FV_CYCLE = 11_417


def test_ring_op_counter_sees_every_op_of_fv_evaluation(monkeypatch, tmp_path):
    from adelic.cli import main

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    ops = load_bench("workloads").cycle("fv-eval", 1, 0, str(tmp_path))
    counter = load_bench("tracing").RingOpCounter()
    counter.install()
    try:
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(op.argv) == 0
    finally:
        counter.uninstall()
    assert counter.count == RING_OPS_OF_THE_FIRST_FV_CYCLE


# Packed kernel products (_Packed.mul calls) that the first cycle of spectrum
# at seed 1 makes.  They are the squares of each good prime's x^p (the steps
# by x are shifts, not products), the rows x^(ip) of its Frobenius matrix,
# and the equal-degree splitting and distinct-degree stages of the bad and
# small primes.  A kernel change that adds products, or that moves a prime to
# another route, moves this count; one that calls the kernel's product
# without the class method lowers it.
PACKED_PRODUCTS_OF_THE_FIRST_SPECTRUM_CYCLE = 4_638


def test_packed_products_of_the_first_spectrum_cycle(monkeypatch, tmp_path):
    from adelic.cli import main
    from adelic.exactpoly import _Packed

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    ops = load_bench("workloads").cycle("spectrum", 1, 0, str(tmp_path))
    count = 0
    mul = _Packed.mul

    def counted(self, a, b):
        nonlocal count
        count += 1
        return mul(self, a, b)

    monkeypatch.setattr(_Packed, "mul", counted)
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(op.argv) == 0
    assert count == PACKED_PRODUCTS_OF_THE_FIRST_SPECTRUM_CYCLE


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


# sha256 of the exit code and stdout of every op of cycle 0 at seed 1, per
# workload; see test_first_cycle_outputs_match_their_digests.
FIRST_CYCLE_DIGESTS = {
    "spectrum": "8782ab40b511079f1e6c78fcc86780f83ad7491636c70a2000b3400aa77328d6",
    "split": "61399348e8ec41861d274e23afff38cf1fd74ec334c21795b57896c036e0d6ae",
    "adele-iso": "678ae87cd40dfac6e597392f8303d5535bba042aab6717e8f66c086306374bed",
    "fv-eval": "19652e40b0d4f70494c8c511c34dcc38194ef1e93df9c9ffea1b4b359793c892",
}


def test_first_cycle_outputs_match_their_digests(monkeypatch, tmp_path):
    """The exit codes and stdout bytes of the first cycle of each benchmark
    workload at seed 1 hash to the recorded digests, so a change of output
    shows here and not only in a benchmark run.  A change that alters an
    output, or the ops of a cycle, re-records FIRST_CYCLE_DIGESTS and says
    why; fv-eval's family files go under tmp_path."""
    from adelic.cli import main
    from adelic.splitting import clear_decomposition_cache

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = load_bench("workloads")
    got = {}
    for name in workloads.WORKLOADS:
        h = hashlib.sha256()
        for op in workloads.cycle(name, 1, 0, str(tmp_path)):
            clear_decomposition_cache()  # each op starts cold, as in the benchmark
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(op.argv)
                except SystemExit as exc:
                    code = exc.code
            h.update(f"{code}\n{out.getvalue()}".encode())
        got[name] = h.hexdigest()
    assert got == FIRST_CYCLE_DIGESTS
