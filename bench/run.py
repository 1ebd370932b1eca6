"""Benchmark of the adelic command line, run in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

One closed-loop client in one thread calls ``adelic.cli.main(argv)`` on the
seeded ops of ``workloads.py`` (each op starts from a cleared decomposition
cache, outside the timed interval, as a fresh CLI invocation would) until
``--seconds`` of op time have passed, at least ``TRACE_OPS`` ops are done and
the current cycle of the workload is complete.  ``check.py`` then judges every
output.  Every op time is scaled to a reference host speed (see calibration.py).  The
last line of stdout is one JSON object:

* ``--trace 0``: end-to-end metrics (throughput, latency median and p90,
  cold-import set-up time, peak RSS);
* ``--trace 1``: the same loop untraced, then the first ``TRACE_OPS`` ops again
  with spans (``tracing.py``), then once more counting ring element ops; the
  per-layer metrics cover those ops.  Spans are written to
  ``.bench_build/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter
from typing import NamedTuple

import tracing
import workloads
from calibration import CAL_REF_S, calibrate
from workloads import TRACE_OPS

SETUP_REPEATS = 7

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Done(NamedTuple):
    """One executed op: exit code (None if an exception escaped), stdout,
    raw and scaled seconds, stderr."""

    op: workloads.Op
    code: int | None
    out: str
    raw_s: float
    scaled_s: float
    err: str


def timed(fn):
    """fn's result, its wall seconds, and those seconds scaled to the
    reference speed (see calibration.py)."""
    before = calibrate()
    t0 = perf_counter()
    result = fn()
    dt = perf_counter() - t0
    scale = CAL_REF_S / ((before + calibrate()) / 2)
    return result, dt, dt * scale


# The child brackets the import with calibrations of its own: its speed does
# not follow the parent's (measured over ten groups of six samples, IQR/median
# of the group medians: raw 0.15, scaled by the parent's loop 0.10, by the
# child's 0.04).
SETUP_CHILD = (
    "import calibration as c; a = c.calibrate(); import adelic.cli; "
    "print(a, c.calibrate())"
)


def setup_seconds(src: str) -> tuple[float, float]:
    """Median raw and scaled wall time of a fresh interpreter importing
    adelic.cli, less the child's two calibration loops."""
    bench = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, bench)))
    cmd = [sys.executable, "-c", SETUP_CHILD]
    subprocess.run(cmd, env=env, check=True, capture_output=True)  # writes the bytecode cache
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        wall = perf_counter() - t0
        before, after = (float(x) for x in proc.stdout.split())
        raw.append(wall - before - after)
        scaled.append(raw[-1] * CAL_REF_S / ((before + after) / 2))
    return statistics.median(raw), statistics.median(scaled)


def run_op(call, op) -> Done:
    """Run one op through call (adelic.cli.main or a traced wrapper of it)."""
    from adelic.splitting import clear_decomposition_cache

    clear_decomposition_cache()
    # Collect outside the timed interval; freezing the survivors keeps the
    # next collection from rescanning every result kept so far.
    gc.collect()
    gc.freeze()
    out, err = io.StringIO(), io.StringIO()

    def invoke():
        try:
            return call(op.argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # an escaped exception is a failed op
            print(f"{type(exc).__name__}: {exc}", file=err)
            return None

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, raw_s, scaled_s = timed(invoke)
    return Done(op, code, out.getvalue(), raw_s, scaled_s, err.getvalue())


def digest(done) -> str:
    """sha256 of the concatenated stdout bytes of the ops."""
    h = hashlib.sha256()
    for d in done:
        h.update(d.out.encode())
    return h.hexdigest()


def closed_loop(workload, seed, seconds, workdir, max_ops=None, corrupt=None):
    """Run whole cycles until the time, op count and cycle conditions hold.

    corrupt(op) may alter the first op's expected result (used by the smoke
    test to show that a wrong result is counted as failed)."""
    import adelic.cli

    done = []
    elapsed = 0.0
    k = 0
    while True:
        for op in workloads.cycle(workload, seed, k, workdir):
            if max_ops is not None and len(done) >= max_ops:
                return done
            if corrupt is not None and not done:
                corrupt(op)
            done.append(run_op(adelic.cli.main, op))
            elapsed += done[-1].raw_s
        k += 1
        if elapsed >= seconds and len(done) >= TRACE_OPS:
            return done


def check_all(workload, done, notes) -> list[str]:
    sys.dont_write_bytecode = True  # write nothing outside the checkout
    import check

    failures = []
    for i, d in enumerate(done):
        try:
            reason = check.check_op(workload, i, d.op, d.code, d.out, notes)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"malformed output ({type(exc).__name__}: {exc})"
        if reason is not None:
            failures.append(f"op {i} {d.op.argv[:2]}: {reason} {d.err.strip()[:200]}")
    return failures


def traced_passes(workload, seed, done, root):
    """Span pass and counting pass over the first TRACE_OPS ops."""
    import adelic.cli

    untraced = done[:TRACE_OPS]
    tracer = tracing.Tracer()
    tracer.install()
    traced_main = tracer.span("cli.main", adelic.cli.main)
    traced = []
    try:
        for i, d in enumerate(untraced):
            tracer.op = i
            traced.append(run_op(traced_main, d.op))
    finally:
        tracer.uninstall()
    counter = tracing.RingOpCounter()
    counter.install()
    try:
        counted = [run_op(adelic.cli.main, d.op) for d in untraced]
    finally:
        counter.uninstall()
    tracer.write(os.path.join(root, ".bench_build", f"spans-{workload}-{seed}.jsonl"))
    metrics = tracer.metrics()
    metrics["finring.ring_ops"] = counter.count
    metrics["trace.overhead_s"] = sum(d.scaled_s for d in traced) - sum(d.scaled_s for d in untraced)
    digests = {name: digest(passed) for name, passed in
               (("untraced", untraced), ("traced", traced), ("counted", counted))}
    return metrics, digests


def measure(workload, seed, seconds, trace, root, max_ops=None, corrupt=None) -> dict:
    """One benchmark run; returns the result object (last stdout line)."""
    src = os.path.join(root, "src")
    workdir = os.path.join(root, ".bench_build", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = (None, None) if trace else setup_seconds(src)
        done = closed_loop(workload, seed, seconds, workdir, max_ops, corrupt)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            layer_metrics, digests = traced_passes(workload, seed, done, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes = Counter()
    failures = check_all(workload, done, notes)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    raw = [d.raw_s for d in done]
    lat = [d.scaled_s for d in done]
    summary = {
        "workload": workload,
        "seed": seed,
        "samples": len(lat),
        "failed_ratio": len(failures) / len(lat),
        "op_seconds": sum(raw),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1000,
        "raw_setup_s": setup[0],
        "stdout_sha256": digest(done[:TRACE_OPS]),
        "verified": notes["verified"],
        "unverified": notes["unverified"],
    }
    correct = not failures
    if trace:
        summary["digests"] = digests
        if len(set(digests.values())) != 1:
            print("FAILED traced and untraced stdout differ", file=sys.stderr)
            correct = False
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1000,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000 if len(lat) > 1 else lat[0] * 1000,
            "setup_s": setup[1],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("summary " + json.dumps(summary, sort_keys=True))
    return {"correct": correct, "attempted": len(lat), "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many ops (smoke runs only)")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "adelic", "cli.py")):
        print("error: run from the root of an adelic checkout (no src/adelic/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    result = measure(args.workload, args.seed, args.seconds, args.trace, root, args.max_ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
