"""Finite families of finite commutative rings indexed by a finite label set.

A family is the data over which generalized products are evaluated: an index
set of labels and one finite ring (stalk) per label.  Stalks load from a JSON
document::

    {"index": ["a", "b", "c"],
     "stalks": {"a": {"kind": "Zmod", "m": 4},
                "b": {"kind": "GF", "p": 2, "f": 2},
                "c": {"kind": "Unramified", "p": 3, "f": 1, "s": 2}}}

Supported stalk kinds: ``Zmod`` (m), ``GF`` (p, f), ``Unramified`` (p, f, s),
and ``Eisenstein`` (p, e, s, coeffs[, f]) for truncated quotients of ramified
valuation rings.  Ring elements are referred to by their integer codes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..exactpoly import IntPoly
from ..finring import FiniteRing, LocalQuotientRing, ZmodRing

__all__ = ["FiniteFamily", "stalk_from_spec", "family_from_json", "MAX_INDEX_SET"]

MAX_INDEX_SET = 16
MAX_STALK_ORDER = 2**12


@dataclass(frozen=True, slots=True)
class FiniteFamily:
    """Index labels plus one finite commutative ring per label."""

    index_set: tuple[str, ...]
    stalks: dict[str, FiniteRing]

    def __init__(self, index_set, stalks):
        labels = tuple(str(i) for i in index_set)
        if len(set(labels)) != len(labels):
            raise ValueError("index labels must be distinct")
        if len(labels) > MAX_INDEX_SET:
            raise ValueError(f"index set larger than {MAX_INDEX_SET} is not supported")
        if set(stalks) != set(labels):
            raise ValueError("stalks must be given for exactly the index labels")
        for label, ring in stalks.items():
            if ring.order > MAX_STALK_ORDER:
                raise ValueError(
                    f"stalk {label!r} has order {ring.order} > {MAX_STALK_ORDER}"
                )
        object.__setattr__(self, "index_set", labels)
        object.__setattr__(self, "stalks", dict(stalks))


def stalk_from_spec(spec: dict) -> FiniteRing:
    """Build a stalk ring from one JSON stalk description."""
    kind = spec.get("kind")
    if kind == "Zmod":
        return ZmodRing(int(spec["m"]))
    if kind == "GF":
        return LocalQuotientRing(int(spec["p"]), 1, int(spec["f"]), None, 1)
    if kind == "Unramified":
        return LocalQuotientRing(int(spec["p"]), 1, int(spec["f"]), None, int(spec["s"]))
    if kind == "Eisenstein":
        poly = IntPoly([int(c) for c in spec["coeffs"]])
        return LocalQuotientRing(
            int(spec["p"]), int(spec["e"]), int(spec.get("f", 1)), poly, int(spec["s"])
        )
    raise ValueError(f"unknown stalk kind {kind!r}")


def family_from_json(doc: str | dict) -> FiniteFamily:
    """Load a family from a JSON string or an already-parsed document."""
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, dict) or "index" not in data or "stalks" not in data:
        raise ValueError('family document needs "index" and "stalks" entries')
    index, specs = data["index"], data["stalks"]
    if not isinstance(index, list) or not all(isinstance(i, str) for i in index):
        raise ValueError('"index" must be a list of label strings')
    if not isinstance(specs, dict) or not all(isinstance(v, dict) for v in specs.values()):
        raise ValueError('"stalks" must map each label to a stalk object')
    try:
        stalks = {str(k): stalk_from_spec(v) for k, v in specs.items()}
    except TypeError as exc:  # a stalk field of the wrong JSON type, e.g. "m": [4]
        raise ValueError(f"bad stalk field: {exc}") from exc
    return FiniteFamily(index, stalks)
