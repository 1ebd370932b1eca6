"""Smoke test of the benchmark itself.  Run from the root of a checkout:

    python3 bench/smoke.py

For each workload it runs ``run.py`` with a tiny op count, untraced and
traced, and checks that every metric of BENCHMARK.json is printed by name
with its unit and that the run is correct.  Then it runs a few ops in-process
with one expected result made wrong and checks that exactly that op is
counted as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads

ROOT = os.getcwd()


def _wrong_expectation(workload: str):
    """A function that makes the expected result of one op wrong."""

    def corrupt(op):
        ref = op.ref
        if workload == "spectrum":
            ref["bound"] += 50
        elif workload == "split":
            op.ref = dict(ref, kind="newton", factors=[[1, 1]])
        elif workload == "adele-iso":
            ref["kind"] = "distinct" if ref["kind"] == "presentation" else "presentation"
        else:
            ref["value"] = not ref["value"]

    return corrupt


def _last_json(cmd) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{cmd} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = _last_json([sys.executable, "bench/run.py", "--workload", workload,
                                 "--seed", "1", "--seconds", "0", "--trace", str(trace),
                                 "--max-ops", "3"])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0, result
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        sys.path.insert(0, os.path.join(ROOT, "src"))
        result = run.measure(workload, 1, 0, 0, ROOT, max_ops=2, corrupt=_wrong_expectation(workload))
        assert result["failed"] == 1 and not result["correct"], (workload, result)
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
