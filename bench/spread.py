"""Run the benchmark on several seeds and report medians and spreads.

    python3 bench/spread.py [--runs 10] [--out FILE]

For each workload, runs ``bench/run.py`` untraced with seeds 1..runs and
once traced (seed 1), each in a fresh process, with the run length of
BENCHMARK.json.  For every end-to-end metric it reports the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
traced run gives the per-layer numbers.  bench/BASELINE.json was written by
this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None, help="also write the report to this file")
    args = parser.parse_args()
    report = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": spec["run_seconds"],
        "runs": args.runs,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [_run(workload, seed, spec["run_seconds"], 0) for seed in range(1, args.runs + 1)]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
            }
        traced = _run(workload, 1, spec["run_seconds"], 1)
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(workload, json.dumps(end_to_end), flush=True)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
