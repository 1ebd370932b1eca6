"""Per-layer spans and counts, taken from outside the program.

``Tracer.install`` rebinds each listed public function, in every ``adelic``
module that imported it, to a wrapper that records a span
``[name, start, end, parent, op]``.  Spans stay in memory until ``write``.
A layer's self time is its span time minus the time of its child spans.

Element ``add``/``mul`` calls are counted in a separate pass by
``RingOpCounter``, so that wrappers on those hot methods do not skew the
span times.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (defining module, function, span name).  Both formula parsers share the
# span name "fv.parse".
SPANS = (
    ("adelic.primes", "primes_up_to", "primes.primes_up_to"),
    ("adelic.exactpoly", "parse_int_poly", "exactpoly.parse_int_poly"),
    ("adelic.exactpoly", "factor_modp", "exactpoly.factor_modp"),
    ("adelic.exactpoly", "cz_factor", "exactpoly.cz_factor"),
    ("adelic.exactpoly", "squarefree_decomposition", "exactpoly.squarefree_decomposition"),
    ("adelic.exactpoly", "discriminant", "exactpoly.discriminant"),
    ("adelic.exactpoly", "sturm_real_roots", "exactpoly.sturm_real_roots"),
    ("adelic.exactpoly", "irreducible_modp", "exactpoly.irreducible_modp"),
    ("adelic.splitting", "decompose", "splitting.decompose"),
    ("adelic.splitting", "kummer_decompose", "splitting.kummer_decompose"),
    ("adelic.splitting", "dedekind_index_test", "splitting.dedekind_index_test"),
    ("adelic.splitting", "ore_local_decompose", "splitting.ore_local_decompose"),
    ("adelic.invariants", "spectrum", "invariants.spectrum"),
    ("adelic.invariants", "signature", "invariants.signature"),
    ("adelic.invariants", "degree_via_split_prime", "invariants.degree_via_split_prime"),
    ("adelic.invariants", "arithmetic_equiv", "invariants.arithmetic_equiv"),
    ("adelic.invariants", "eisenstein_presentation", "invariants.eisenstein_presentation"),
    ("adelic.invariants", "residue_ring_construct", "invariants.residue_ring_construct"),
    ("adelic.invariants", "adele_iso_verdict", "invariants.adele_iso_verdict"),
    ("adelic.finring", "finite_ring_isomorphic", "finring.finite_ring_isomorphic"),
    ("adelic.finring", "find_ring_isomorphism", "finring.find_ring_isomorphism"),
    ("adelic.fv.family", "family_from_json", "fv.family_from_json"),
    ("adelic.fv.formulas", "parse_ring_formula", "fv.parse"),
    ("adelic.fv.formulas", "parse_boole_formula", "fv.parse"),
    ("adelic.fv.evaluate", "gen_product_eval", "fv.gen_product_eval"),
    ("adelic.fv.evaluate", "theta_set", "fv.theta_set"),
    ("adelic.fv.evaluate", "eval_ring_formula", "fv.eval_ring_formula"),
    ("adelic.fv.evaluate", "eval_boole", "fv.eval_boole"),
)

# Functions that are only counted: a span per call would cost more than the call.
COUNTED = (("adelic.primes", "is_prime", "primes.is_prime"),)

LAYERS = ("cli", "primes", "exactpoly", "splitting", "invariants", "finring", "fv")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("exactpoly.factor_modp.calls", "count"),
    ("exactpoly.factor_modp.busy_s", "s"),
    ("exactpoly.cz_factor.self_s", "s"),
    ("exactpoly.squarefree_decomposition.self_s", "s"),
    ("exactpoly.discriminant.self_s", "s"),
    ("exactpoly.sturm_real_roots.self_s", "s"),
    ("exactpoly.irreducible_modp.self_s", "s"),
    ("exactpoly.parse_int_poly.self_s", "s"),
    ("splitting.NumberField.self_s", "s"),
    ("splitting.decompose.calls", "count"),
    ("splitting.decompose.self_s", "s"),
    ("splitting.decompose.hit_ratio", "ratio"),
    ("splitting.decompose.resolved_ratio", "ratio"),
    ("splitting.kummer_decompose.calls", "count"),
    ("splitting.dedekind_index_test.calls", "count"),
    ("splitting.ore_local_decompose.calls", "count"),
    ("splitting.ore_local_decompose.self_s", "s"),
    ("splitting.ore_local_decompose.retries", "count"),
    ("invariants.degree_via_split_prime.calls", "count"),
    ("invariants.degree_via_split_prime.busy_s", "s"),
    ("invariants.arithmetic_equiv.self_s", "s"),
    ("invariants.spectrum.self_s", "s"),
    ("invariants.adele_iso_verdict.self_s", "s"),
    ("invariants.signature.busy_s", "s"),
    ("invariants.eisenstein_presentation.busy_s", "s"),
    ("invariants.residue_ring_construct.busy_s", "s"),
    ("finring.finite_ring_isomorphic.calls", "count"),
    ("finring.finite_ring_isomorphic.self_s", "s"),
    ("finring.find_ring_isomorphism.calls", "count"),
    ("finring.find_ring_isomorphism.busy_s", "s"),
    ("finring.find_ring_isomorphism.order_sum", "count"),
    ("finring.cap_exceeded", "count"),
    ("finring.ring_ops", "count"),
    ("fv.family_from_json.busy_s", "s"),
    ("fv.gen_product_eval.busy_s", "s"),
    ("fv.theta_set.self_s", "s"),
    ("fv.eval_ring_formula.calls", "count"),
    ("fv.eval_ring_formula.busy_s", "s"),
    ("fv.eval_boole.busy_s", "s"),
    ("fv.parse.self_s", "s"),
    ("fv.cap_exceeded", "count"),
    ("primes.primes_up_to.self_s", "s"),
    ("primes.is_prime.calls", "count"),
    ("cli.main.self_s", "s"),
) + tuple((f"layer.{m}.self_s", "s") for m in LAYERS) + (
    ("trace.overhead_s", "s"),
)


def _rebind(original, replacement) -> list:
    """Point every adelic module attribute bound to original at replacement."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "adelic" or name.startswith("adelic.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


class Tracer:
    """Spans of one traced pass; ``op`` is set by the caller before each op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._undo: list = []
        self._seen_caps: set[int] = set()

    def span(self, name: str, fn, on_call=None, on_return=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            if on_call is not None:
                on_call(args)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = perf_counter()
                self._on_error(name, exc)
                raise
            else:
                rec[2] = perf_counter()
            finally:
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _on_error(self, name: str, exc: Exception) -> None:
        from adelic.finring import RingCapExceededError
        from adelic.fv import EvalCapError
        from adelic.splitting import InsufficientPrecisionError

        if isinstance(exc, InsufficientPrecisionError) and name == "splitting.ore_local_decompose":
            self.counts["splitting.ore_local_decompose.retries"] += 1
        if isinstance(exc, (RingCapExceededError, EvalCapError)) and id(exc) not in self._seen_caps:
            self._seen_caps.add(id(exc))
            layer = "finring" if isinstance(exc, RingCapExceededError) else "fv"
            self.counts[f"{layer}.cap_exceeded"] += 1

    def _count(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        from adelic.splitting import NumberField

        def resolved(dec):
            if dec.is_resolved:
                self.counts["splitting.decompose.resolved"] += 1

        def order(args):
            self.counts["finring.find_ring_isomorphism.order_sum"] += args[0].order

        hooks = {
            "splitting.decompose": {"on_return": resolved},
            "finring.find_ring_isomorphism": {"on_call": order},
        }
        for module, attr, name in SPANS:
            original = getattr(importlib.import_module(module), attr)
            self._undo += _rebind(original, self.span(name, original, **hooks.get(name, {})))
        for module, attr, name in COUNTED:
            original = getattr(importlib.import_module(module), attr)
            self._undo += _rebind(original, self._count(name, original))
        init = NumberField.__init__
        NumberField.__init__ = self.span("splitting.NumberField", init)
        self._undo.append((NumberField, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        busy: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        children = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                children[parent] += 1
        self_s: Counter = Counter()
        hits = 0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - child_time[i]
            if name == "splitting.decompose" and children[i] == 0:
                hits += 1
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            head, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[head]
            elif stat == "busy_s":
                out[metric] = busy[head]
            elif stat == "self_s" and not head.startswith("layer."):
                out[metric] = self_s[head]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")
            )
        n = calls["splitting.decompose"]
        out["splitting.decompose.hit_ratio"] = hits / n if n else 0.0
        out["splitting.decompose.resolved_ratio"] = (
            self.counts["splitting.decompose.resolved"] / n if n else 0.0
        )
        for key in (
            "splitting.ore_local_decompose.retries",
            "finring.find_ring_isomorphism.order_sum",
            "finring.cap_exceeded",
            "fv.cap_exceeded",
            "primes.is_prime.calls",
        ):
            out[key] = self.counts[key]
        return out


class RingOpCounter:
    """Counts element add/mul calls on every ring class of ``adelic.finring``."""

    def __init__(self):
        self.count = 0
        self._undo: list = []

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self.count += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        import adelic.finring as finring

        for cls in vars(finring).values():
            if isinstance(cls, type) and issubclass(cls, finring.FiniteRing):
                for attr in ("add", "mul"):
                    if attr in vars(cls):
                        original = vars(cls)[attr]
                        setattr(cls, attr, self._wrap(original))
                        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._undo):
            setattr(cls, attr, original)
        self._undo = []
