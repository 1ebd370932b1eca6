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
valuation rings; every field and coefficient must be a JSON integer.  A
stalk whose order, m or p^(f*s), exceeds MAX_STALK_ORDER is refused from its
description, before any ring is built, and so is an ``Eisenstein`` stalk of
degree e above MAX_DEGREE, whose multiplication table would take O(e^2) time
and memory.  Ring elements are referred to by their integer codes.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass

from ..exactpoly import MAX_DEGREE, IntPoly
from ..finring import MAX_LOG_TABLE_ORDER, FiniteRing, LocalQuotientRing, ZmodRing

__all__ = ["FiniteFamily", "stalk_from_spec", "family_from_json", "MAX_INDEX_SET"]

MAX_INDEX_SET = 16
# Every field stalk is small enough to multiply by exp/log tables.
MAX_STALK_ORDER = MAX_LOG_TABLE_ORDER


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
                    f"stalk {reprlib.repr(label)} has order {ring.order} > {MAX_STALK_ORDER}"
                )
        object.__setattr__(self, "index_set", labels)
        object.__setattr__(self, "stalks", dict(stalks))


def _integer(spec: dict, name: str, default: int | None = None) -> int:
    """spec[name], or default when given and the field is absent; it must be
    a JSON integer."""
    value = spec[name] if default is None else spec.get(name, default)
    if type(value) is not int:  # refuses bool, float, string, list and null
        raise ValueError(f"stalk field {name!r} must be an integer, got {reprlib.repr(value)}")
    return value


def _local_quotient(p: int, e: int, f: int, eisenstein, s: int) -> LocalQuotientRing:
    """LocalQuotientRing(p, e, f, eisenstein, s), refused before it is built
    when its order p^(f*s) exceeds MAX_STALK_ORDER; as p >= 2, f*s must stay
    below the cap's bit length, so no large power is computed."""
    if p >= 2 and f >= 1 and s >= 1:
        if f * s >= MAX_STALK_ORDER.bit_length() or p ** (f * s) > MAX_STALK_ORDER:
            raise ValueError(f"stalk order {p}^{f * s} > {MAX_STALK_ORDER}")
    return LocalQuotientRing(p, e, f, eisenstein, s)


def stalk_from_spec(spec: dict) -> FiniteRing:
    """Build a stalk ring from one JSON stalk description."""
    kind = spec.get("kind")
    if kind == "Zmod":
        m = _integer(spec, "m")
        if m > MAX_STALK_ORDER:
            raise ValueError(f"stalk order {m} > {MAX_STALK_ORDER}")
        return ZmodRing(m)
    if kind == "GF":
        return _local_quotient(_integer(spec, "p"), 1, _integer(spec, "f"), None, 1)
    if kind == "Unramified":
        p, f, s = (_integer(spec, k) for k in ("p", "f", "s"))
        return _local_quotient(p, 1, f, None, s)
    if kind == "Eisenstein":
        coeffs = spec["coeffs"]
        if type(coeffs) is not list or any(type(c) is not int for c in coeffs):
            raise ValueError(
                f"stalk field 'coeffs' must be a list of integers, got {reprlib.repr(coeffs)}"
            )
        p, e, s = (_integer(spec, k) for k in ("p", "e", "s"))
        if e > MAX_DEGREE:
            raise ValueError(f"Eisenstein degree {e} > {MAX_DEGREE}")
        return _local_quotient(p, e, _integer(spec, "f", 1), IntPoly(coeffs), s)
    raise ValueError(f"unknown stalk kind {reprlib.repr(kind)}")


def family_from_json(doc: str | dict) -> FiniteFamily:
    """Load a family from a JSON string or an already-parsed document."""
    try:
        data = json.loads(doc) if isinstance(doc, str) else doc
    except RecursionError:
        raise ValueError("family document is nested too deeply") from None
    if not isinstance(data, dict) or "index" not in data or "stalks" not in data:
        raise ValueError('family document needs "index" and "stalks" entries')
    index, specs = data["index"], data["stalks"]
    if not isinstance(index, list) or not all(isinstance(i, str) for i in index):
        raise ValueError('"index" must be a list of label strings')
    if not isinstance(specs, dict) or not all(isinstance(v, dict) for v in specs.values()):
        raise ValueError('"stalks" must map each label to a stalk object')
    stalks = {str(k): stalk_from_spec(v) for k, v in specs.items()}
    return FiniteFamily(index, stalks)
