"""Untimed correctness checker with references independent of ``adelic``.

Every op must give its expected exit code and well-formed JSON.  Beyond that:

* ``spectrum``: the primes up to the bound are partitioned, only bad primes
  are excluded, and the Eisenstein prime has type (1).  At two sampled good
  primes per op, and at every bad prime p with v_p(disc) = 1 (p cannot divide
  the index, so Kummer-Dedekind applies), the type is compared with sympy's
  factorization of f mod p.  Bad primes with v_p(disc) >= 2 are compared with
  sympy's prime decomposition in the first FULL_OPS ops of a run.
* ``split``: status and sum(e*f) = deg f for every op; Newton-route ops give
  the (e, f) or the Undetermined status their construction fixes (see
  ``workloads.newton_field``); good-prime ops are compared with sympy's
  factorization of f mod p in the first SPLIT_REFERENCE_OPS ops of a run.
* ``adele-iso``: verdict kinds are fixed by how each pair was built.  Two
  presentations of one field are never NotIsomorphic and certify the chosen
  prime; distinct fields are NotIsomorphic, and a splitting-type, signature
  or local (e, f) witness is confirmed with sympy (a residue-ring witness is
  not); the degree-7 pair is arithmetically equivalent, so no splitting or
  signature witness may be claimed.
* ``fv-eval``: truth values come from each stalk's known structure.

sympy's maximal-order computation (round two) is wrong or fails on some
polynomials: it raises, or returns a field discriminant d_K with disc(f)/d_K
not a square.  Results that then get only the structural checks, and results
outside the sampled references, are counted in notes["unverified"]; results
compared with a reference are counted in notes["verified"].
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from functools import lru_cache
from math import isqrt

from sympy import Poly, ZZ, primerange, symbols
from sympy.polys.galoistools import gf_factor
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.exceptions import ClosureFailure
from sympy.polys.numberfields.primes import prime_decomp

from workloads import valuation

FULL_OPS = 10
SPLIT_REFERENCE_OPS = 200
SAMPLED_GOOD_PRIMES = 2

_X = symbols("x")


def _poly(coeffs) -> Poly:
    return Poly(list(reversed(coeffs)), _X, domain=ZZ)


@lru_cache(maxsize=None)
def _disc(coeffs: tuple) -> int:
    return int(_poly(coeffs).discriminant())


@lru_cache(maxsize=None)
def _signature(coeffs: tuple) -> tuple[int, int]:
    r1 = _poly(coeffs).count_roots()
    return r1, (len(coeffs) - 1 - r1) // 2


@lru_cache(maxsize=None)
def _maximal_order(coeffs: tuple):
    """sympy's (Z_K, d_K), or None when it fails or is inconsistent."""
    try:
        zk, dk = round_two(_poly(coeffs))
    except (ClosureFailure, AssertionError):
        return None
    if dk == 0:
        return None
    ratio, rem = divmod(_disc(coeffs), int(dk))
    if rem or ratio <= 0 or isqrt(ratio) ** 2 != ratio:
        return None
    return zk, dk


@lru_cache(maxsize=None)
def _local(coeffs: tuple, p: int) -> tuple[tuple[int, int], ...] | None:
    """Sorted (e, f) pairs of the primes above p in Q[x]/(f); None when
    sympy cannot compute them."""
    if valuation(_disc(coeffs), p) <= 1:
        hi = [c % p for c in reversed(coeffs)]
        _, factors = gf_factor(hi, p, ZZ)
        pairs = [(k, len(g) - 1) for g, k in factors]
    else:
        order = _maximal_order(coeffs)
        if order is None:
            return None
        try:
            ideals = prime_decomp(p, T=_poly(coeffs), ZK=order[0], dK=order[1])
        except (ClosureFailure, AssertionError):
            return None
        pairs = [(int(P.e), int(P.f)) for P in ideals]
        if sum(e * f for e, f in pairs) != len(coeffs) - 1:
            return None
    return tuple(sorted(pairs))


def _type(coeffs: tuple, p: int) -> list[int] | None:
    local = _local(coeffs, p)
    return None if local is None else sorted(f for _, f in local)


def check_op(workload: str, index: int, op, code, out: str, notes: Counter) -> str | None:
    """None when op number `index` of a run gave the right exit code and
    stdout, else the reason."""
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    try:
        data = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    return CHECKS[workload](index, op.ref, data, notes)


def _compare(got, want, notes, what: str) -> str | None:
    if want is None:
        notes["unverified"] += 1
        return None
    notes["verified"] += 1
    if got != want:
        return f"{what}: {got}, reference {want}"
    return None


def _check_spectrum(index, ref, data, notes) -> str | None:
    c = tuple(ref["poly"])
    disc = _disc(c)
    seen = {}
    for entry in data["entries"]:
        for p in entry["primes"]:
            seen[p] = entry["type"]
    for p in data["excluded"]:
        if disc % p:
            return f"good prime {p} excluded"
        seen[p] = None
    if sorted(seen) != list(primerange(2, ref["bound"] + 1)):
        return "primes up to the bound are not partitioned"
    good = [p for p in seen if disc % p]
    sampled = set(random.Random(f"{c}/{ref['bound']}").sample(good, SAMPLED_GOOD_PRIMES))
    for p, t in seen.items():
        if t is None:
            continue
        if sum(t) > len(c) - 1:
            return f"type {t} at p={p} exceeds the degree"
        if p == ref["eisenstein_prime"]:
            want = [1]
        elif p in sampled or (disc % p == 0 and (index < FULL_OPS or valuation(disc, p) == 1)):
            want = _type(c, p)
        else:
            notes["unverified"] += 1
            continue
        reason = _compare(t, want, notes, f"type at p={p}")
        if reason:
            return reason
    return None


def _check_split(index, ref, data, notes) -> str | None:
    c = tuple(ref["poly"])
    p = ref["prime"]
    if ref["kind"] == "newton" and ref["factors"] is None:
        if data.get("status") != "Undetermined":
            return "expected Undetermined"
        notes["verified"] += 1
        return None
    if data.get("status") != "Resolved":
        return f"status {data.get('status')}"
    got = sorted(tuple(ef) for ef in data["factors"])
    if sum(e * f for e, f in got) != len(c) - 1 or data["ef_sum"] != len(c) - 1:
        return "sum of e*f differs from the degree"
    if ref["kind"] == "newton":
        want = sorted(tuple(ef) for ef in ref["factors"])
    elif index < SPLIT_REFERENCE_OPS:
        local = _local(c, p)
        want = None if local is None else list(local)
    else:
        notes["unverified"] += 1
        return None
    return _compare(got, want, notes, f"factors at p={p}")


_SPLIT_REASON = re.compile(r"splitting types differ at p=(\d+): \(([\d,]*)\) vs \(([\d,]*)\)")


def _good_for_both(a, b, p) -> bool:
    return _disc(a) % p != 0 and _disc(b) % p != 0


def _check_adele(index, ref, data, notes) -> str | None:
    a, b = (tuple(c) for c in ref["polys"])
    kind = data["kind"]
    bound = ref["bound"]
    if ref["kind"] == "presentation":
        if kind not in ("IsomorphicCertified", "IsomorphicModuloAssumption"):
            return f"one field in two presentations gave {kind}"
        want = {"prime": ref["prime"], "e": ref["e"], "f": 1,
                "certificate": "eisenstein-residue-ring", "truncation": ref["truncation"]}
        if want not in data["matching"]:
            return f"no residue-ring certificate at p={ref['prime']}"
        notes["verified"] += 1
        return None
    reason = data.get("reason") or ""
    m = _SPLIT_REASON.fullmatch(reason)
    if ref["kind"] == "equivalent":
        if m or reason.startswith("signature mismatch"):
            return f"arithmetically equivalent pair refuted by: {reason}"
        return _compare(_signature(a), _signature(b), notes, "signatures")
    if kind != "NotIsomorphic":
        return f"distinct fields gave {kind}"
    if m:
        w = int(m.group(1))
        tk = [int(x) for x in m.group(2).split(",")]
        tl = [int(x) for x in m.group(3).split(",")]
        if data["witness"] != w or w > bound or not _good_for_both(a, b, w):
            return f"witness {w} is not a good prime for both fields within the bound"
        if tk == tl:
            return "witness types are equal"
        for p in primerange(2, w):
            if _good_for_both(a, b, p) and _type(a, p) != _type(b, p):
                return f"a smaller witness {p} exists"
        return _compare([tk, tl], [_type(a, w), _type(b, w)], notes, f"types at p={w}")
    if reason.startswith("signature mismatch"):
        if _signature(a) == _signature(b):
            return "reference signatures agree"
        notes["verified"] += 1
        return None
    if reason.startswith("local (e, f) multisets differ"):
        w = data["witness"]
        la, lb = _local(a, w), _local(b, w)
        if la is None or lb is None:
            notes["unverified"] += 1
        elif la == lb:
            return f"reference local data agree at p={w}"
        else:
            notes["verified"] += 1
        return None
    if reason.startswith("residue rings at p="):
        notes["unverified"] += 1
        return None
    return f"unrecognised reason {reason!r}"


def _check_fv(index, ref, data, notes) -> str | None:
    return _compare(data, {"value": ref["value"]}, notes, "result")


CHECKS = {
    "spectrum": _check_spectrum,
    "split": _check_split,
    "adele-iso": _check_adele,
    "fv-eval": _check_fv,
}
