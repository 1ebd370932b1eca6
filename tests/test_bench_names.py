"""The benchmark's tracer reaches into the library by name: every name it
rebinds or imports must exist, so that dropping one fails here rather than in
a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    names = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTED]
    # the names Tracer and RingOpCounter import or read directly
    names += [
        ("adelic.splitting", "InsufficientPrecisionError"),
        ("adelic.splitting", "NumberField"),
        ("adelic.finring", "RingCapExceededError"),
        ("adelic.finring", "FiniteRing"),
        ("adelic.fv", "EvalCapError"),
    ]
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
