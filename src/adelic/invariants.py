"""Adelic elementary invariants of number fields and comparison verdicts.

Extracts the data that distinguishes (or matches) the adele rings of two
number fields at desk scale: splitting-type spectra, archimedean signatures,
degree detection through completely split primes, partial Dedekind zeta
coefficients, arithmetic-equivalence certificates bounded by a prime cutoff,
and an adele-isomorphism pipeline that certifies matched local data at the
residue-ring level where a supported presentation exists.

Verdicts are data, not errors, and every verdict carries either a witness or
an explicit statement of what was assumed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

from .exactpoly import IntPoly, squarefree_decomposition, sturm_real_roots
from .finring import (
    FiniteRing,
    LocalQuotientRing,
    RingCapExceededError,
    find_ring_isomorphism,
    finite_ring_isomorphic,
    _is_eisenstein_at,
)
from .primes import DEFAULT_PRIME_BOUND, is_prime, primes_up_to, valuation
from .splitting import (
    NumberField,
    SplittingType,
    decompose,
    splitting_sweep,
    splitting_type,
)

__all__ = [
    "SplittingSpectrum",
    "Signature",
    "ArithEquivVerdict",
    "AdeleIsoVerdict",
    "MatchedLocalPair",
    "UnmatchedLocalDatum",
    "ResidueRing",
    "RingUndetermined",
    "ZetaLocalFactor",
    "UnresolvedPrimeError",
    "DEFAULT_PRIME_BOUND",
    "spectrum",
    "signature",
    "degree_via_split_prime",
    "aq_distinguisher",
    "zeta_local_factor",
    "zeta_partial_coefficients",
    "arithmetic_equiv",
    "keating_bound",
    "residue_ring_construct",
    "finite_ring_isomorphic",
    "adele_iso_verdict",
    "eisenstein_presentation",
]


class UnresolvedPrimeError(ValueError):
    """Raised when a computation needs a decomposition that came back Undetermined."""


# ---------------------------------------------------------------------------
# Spectra and signatures.


@dataclass(frozen=True, slots=True)
class SplittingSpectrum:
    """Splitting types observed for all primes up to a bound.

    entries maps each observed splitting type to the ascending tuple of
    primes realizing it; excluded lists primes whose decomposition came back
    Undetermined.  Together they partition the primes up to the bound.
    """

    field: NumberField
    bound: int
    entries: dict[SplittingType, tuple[int, ...]]
    excluded: tuple[int, ...]

    def types(self) -> list[SplittingType]:
        return sorted(self.entries, key=lambda t: t.degrees)


def spectrum(K: NumberField, B: int) -> SplittingSpectrum:
    """Classify every prime up to B by its splitting type in K."""
    if B < 2:
        raise ValueError("bound must be at least 2")
    entries: dict[SplittingType, list[int]] = {}
    excluded: list[int] = []
    for p, t in splitting_sweep(K, B):
        if t is None:
            excluded.append(p)
        else:
            entries.setdefault(t, []).append(p)
    return SplittingSpectrum(
        field=K,
        bound=B,
        entries={t: tuple(ps) for t, ps in entries.items()},
        excluded=tuple(excluded),
    )


@dataclass(frozen=True, slots=True)
class Signature:
    """Archimedean signature: r1 real and r2 complex places, r1 + 2*r2 = degree."""

    r1: int
    r2: int


def signature(K: NumberField) -> Signature:
    """Real/complex place counts from the real-root count of the defining polynomial."""
    r1 = sturm_real_roots(K.min_poly)
    return Signature(r1, (K.degree - r1) // 2)


def degree_via_split_prime(K: NumberField, B: int) -> tuple[int, int] | None:
    """Detect the field degree from the least completely split good prime <= B.

    Returns (number of factors, witness prime) for the least good prime whose
    decomposition is unramified with all residue degrees 1, or None if no
    such prime exists below the bound (raise B; such primes have positive
    density).
    """
    if B < 2:
        raise ValueError("bound must be at least 2")
    for p, t in splitting_sweep(K, B, K.poly_disc):
        if t.degrees[-1] == 1:  # a good prime is unramified, and degrees ascend
            return len(t.degrees), p
    return None


def aq_distinguisher(K: NumberField, B: int) -> tuple[int, ...]:
    """Good primes p <= B whose decomposition is exactly one unramified prime
    with residue field F_p.

    Nonempty only for the rational field: the e*f of the primes above p sum
    to the degree, so a single (1, 1) factor means degree 1, where every good
    prime has one.  No prime is decomposed.
    """
    if B < 2:
        raise ValueError("bound must be at least 2")
    if K.degree != 1:
        return ()
    return tuple(p for p in primes_up_to(B) if K.poly_disc % p)


# ---------------------------------------------------------------------------
# Zeta data.


@dataclass(frozen=True, slots=True)
class ZetaLocalFactor:
    """Local Euler factor data at p: the residue degrees of the primes above p.

    Two local factors are equal exactly when the residue-degree multisets
    agree; ideal counts of norm p^k are the T^k coefficients of
    prod_j 1/(1 - T^(f_j)).
    """

    prime: int
    residue_degrees: SplittingType

    def ideal_counts(self, upto: int) -> list[int]:
        """Counts of ideals of norm p^k for k = 0..upto."""
        c = [1] + [0] * upto
        for fj in self.residue_degrees.degrees:
            for i in range(fj, upto + 1):
                c[i] += c[i - fj]
        return c


def zeta_local_factor(K: NumberField, p: int) -> ZetaLocalFactor:
    """Local zeta data of K at p; requires a Resolved decomposition."""
    dec = decompose(K, p)
    if not dec.is_resolved:
        raise UnresolvedPrimeError(f"decomposition at p={p} is undetermined: {dec.reason}")
    return ZetaLocalFactor(p, splitting_type(dec))


def zeta_partial_coefficients(
    K: NumberField, N: int, restrict_to: tuple[int, ...] | None = None
) -> list[int]:
    """Ideal-count coefficients a_1..a_N (a_n = number of integral ideals of norm n).

    Multiplicative over prime powers using the local Euler factors.  When
    restrict_to is given, only those primes contribute (the Euler factor of
    every other prime is treated as 1); otherwise every prime <= N must
    resolve, and an Undetermined decomposition raises UnresolvedPrimeError.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    use = primes_up_to(N) if restrict_to is None else tuple(p for p in restrict_to if p <= N)
    counts: dict[int, list[int]] = {}
    for p in use:
        kmax = 0
        pk = p
        while pk <= N:
            kmax += 1
            pk *= p
        counts[p] = zeta_local_factor(K, p).ideal_counts(kmax)
    out = [1]
    for n in range(2, N + 1):
        a = 1
        m = n
        for p, local in counts.items():
            if m % p == 0:
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                a *= local[k]
        if m != 1:
            # Some prime factor of n contributes no Euler factor (restricted
            # mode): no ideal has norm n.
            a = 0
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# Arithmetic equivalence (bounded certificate).


@dataclass(frozen=True, slots=True)
class ArithEquivVerdict:
    """Bounded arithmetic-equivalence verdict.

    kind is "NotEquivalent" (with a witness prime where both decompositions
    are Resolved and the splitting types differ) or "EquivalentUpToBound"
    (all compared primes agree; excluded_primes lists the primes left out of
    the sweep: every prime <= bound that is bad for either field when the
    sweep ran to the bound).  degree_check records whether the two fields
    have the same degree.
    """

    kind: str
    bound: int
    degree_check: bool
    witness_prime: int | None = None
    type_k: SplittingType | None = None
    type_l: SplittingType | None = None
    compared_count: int = 0
    excluded_primes: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "bound": self.bound,
            "degree_check": self.degree_check,
            "witness": self.witness_prime,
            "excluded_primes": list(self.excluded_primes),
        }
        if self.kind == "NotEquivalent":
            out["type_k"] = list(self.type_k.degrees)
            out["type_l"] = list(self.type_l.degrees)
        else:
            out["compared_count"] = self.compared_count
        return out


NOT_EQUIVALENT = "NotEquivalent"
EQUIVALENT_UP_TO_BOUND = "EquivalentUpToBound"


def arithmetic_equiv(K: NumberField, L: NumberField, B: int = DEFAULT_PRIME_BOUND) -> ArithEquivVerdict:
    """Compare splitting types of K and L at every good-for-both prime <= B.

    The first mismatch produces NotEquivalent with the witness; otherwise
    EquivalentUpToBound.  Bad primes (for either field) are excluded from the
    sweep and reported; they are handled separately by the adele-isomorphism
    pipeline, which is where they matter.  The degree check compares the
    degrees of the defining polynomials; degree_via_split_prime detects the
    same number from splitting data alone, but no verdict depends on it.
    """
    if B < 2:
        raise ValueError("bound must be at least 2")
    degree_check = K.degree == L.degree
    bad = K.poly_disc * L.poly_disc  # a prime divides it iff it is bad for K or for L
    primes = primes_up_to(B)
    compared = 0
    for (p, tk), (_, tl) in zip(splitting_sweep(K, B, bad), splitting_sweep(L, B, bad)):
        if tk != tl:
            return ArithEquivVerdict(
                NOT_EQUIVALENT,
                bound=B,
                degree_check=degree_check,
                witness_prime=p,
                type_k=tk,
                type_l=tl,
                excluded_primes=tuple(q for q in primes[: primes.index(p)] if bad % q == 0),
            )
        compared += 1
    return ArithEquivVerdict(
        EQUIVALENT_UP_TO_BOUND,
        bound=B,
        degree_check=degree_check,
        compared_count=compared,
        excluded_primes=tuple(q for q in primes if bad % q == 0),
    )


# ---------------------------------------------------------------------------
# Residue rings and the truncation level that pins down a local field.


def keating_bound(p: int, e: int) -> int:
    """Truncation level s at which O/pi^s determines a local field with
    ramification index e over Q_p.

    For e > 1 this is the least integer strictly greater than
    p/(p-1) + v_p(e)*e: p/(p-1) is 2 at p = 2 and lies in (1, 3/2] for odd
    p.  For e = 1 the unramified completion is already determined by its
    residue field, and level 2 is used.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("ramification index must be positive")
    if e == 1:
        return 2
    return valuation(e, p) * e + (3 if p == 2 else 2)


@dataclass(frozen=True, slots=True)
class RingUndetermined:
    """Marker result: the requested residue-ring shape is not supported."""

    reason: str


@dataclass(frozen=True, slots=True)
class ResidueRing:
    """A quotient O/pi^s presented explicitly, with its order and characteristic.

    presentation is "unramified" (pi = p, determined by (p, f, s)) or
    "eisenstein" (totally ramified part generated by a root of the stored
    Eisenstein polynomial, pi = that root).
    """

    presentation: str
    p: int
    e: int
    f: int
    s: int
    eisenstein_coeffs: tuple[int, ...] | None
    ring: FiniteRing = field(compare=False)
    order: int = 0
    characteristic: int = 0


def residue_ring_construct(
    p: int,
    e: int,
    f: int,
    local_factor: IntPoly | None = None,
    s: int = 1,
) -> ResidueRing | RingUndetermined:
    """Build the quotient O/pi^s for a local field with invariants (e, f).

    Supported shapes: e = 1 (unramified; determined by (p, f, s) alone), and
    e > 1 with a monic Eisenstein local factor of degree e (over the
    unramified subpresentation when f > 1).  Anything else comes back as
    RingUndetermined with a machine-readable reason.
    """
    if s < 1:
        raise ValueError("truncation level must be at least 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e == 1:
        local_factor = None
    elif local_factor is None:
        return RingUndetermined("no-local-factor: ramified shape needs an Eisenstein polynomial")
    elif local_factor.degree != e or not local_factor.is_monic:
        return RingUndetermined("local-factor-degree: polynomial degree must equal e")
    elif not _is_eisenstein_at(local_factor, p):
        return RingUndetermined("not-eisenstein: local factor is not Eisenstein at p")
    ring = LocalQuotientRing(p, e, f, local_factor, s)
    return ResidueRing(
        presentation="unramified" if local_factor is None else "eisenstein",
        p=p,
        e=e,
        f=f,
        s=s,
        eisenstein_coeffs=None if local_factor is None else local_factor.coeffs,
        ring=ring,
        order=ring.order,
        characteristic=ring.characteristic(),
    )


def eisenstein_presentation(K: NumberField, p: int) -> IntPoly | None:
    """Eisenstein polynomial for the completion of K at p, when p is totally
    ramified and a shift of the defining polynomial exhibits it.

    Returns f(x + c) for the least c in [0, p^2) that makes it Eisenstein;
    the Eisenstein conditions only depend on c modulo p^2.  Total
    ramification with residue degree 1 gives f = (x - r)^n mod p, and
    f(x + c) can only be Eisenstein for c = r mod p.  For n >= 2, f'(r) = 0
    mod p, so f(r + k*p) = f(r) mod p^2 and c = r decides; for n = 1 one of
    c = r, r + p works.  Returns None when p is not totally ramified in K or
    no shift works (e.g. when no integer translate of the generator is a
    uniformizer).
    """
    dec = decompose(K, p)
    if not dec.is_resolved or dec.factors != ((K.degree, 1),):
        return None
    return _eisenstein_shift(K, p)


def _eisenstein_shift(K: NumberField, p: int) -> IntPoly | None:
    """The shift search of eisenstein_presentation, for a p already known to
    be totally ramified with residue degree 1 in K."""
    [(root_factor, _)] = squarefree_decomposition(K.min_poly.reduce_mod(p))
    r = -root_factor.coeffs[0] % p
    for c in (r, r + p):
        shifted = K.min_poly.shift(c)
        if _is_eisenstein_at(shifted, p):
            return shifted
    return None


# ---------------------------------------------------------------------------
# Adele-isomorphism pipeline.


NOT_ISOMORPHIC = "NotIsomorphic"
ISOMORPHIC_CERTIFIED = "IsomorphicCertified"
ISOMORPHIC_MODULO_ASSUMPTION = "IsomorphicModuloAssumption"
UNDETERMINED_VERDICT = "Undetermined"

ASSUMPTION_NOTE = "(e, f) determines the local field among candidates present"


@dataclass(frozen=True, slots=True)
class MatchedLocalPair:
    """One matched pair of local data at a bad prime, with its certificate."""

    prime: int
    e: int
    f: int
    certificate: str
    truncation: int | None = None


@dataclass(frozen=True, slots=True)
class UnmatchedLocalDatum:
    """Local data matched on (e, f) but not certified at the residue-ring level."""

    prime: int
    e: int
    f: int
    reason: str


@dataclass(frozen=True, slots=True)
class AdeleIsoVerdict:
    """Adele-ring comparison verdict.

    kind is NotIsomorphic (reason + witness), IsomorphicCertified (every
    matched pair of local data carries a certificate), IsomorphicModuloAssumption
    (matching exists on (e, f) but some pairs lack a supported residue-ring
    presentation; the assumption is named), or Undetermined.  excluded_primes
    lists the primes left out of the arithmetic-equivalence sweep.
    """

    kind: str
    bound: int
    reason: str | None = None
    witness: int | None = None
    matching: tuple[MatchedLocalPair, ...] = ()
    unmatched: tuple[UnmatchedLocalDatum, ...] = ()
    assumption_note: str | None = None
    excluded_primes: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return asdict(self)


def _discriminant_cofactors(K: NumberField, L: NumberField, primes) -> list[int]:
    """Parts of either discriminant left after removing the given primes."""
    leftovers = set()
    for disc in (K.poly_disc, L.poly_disc):
        n = abs(disc)
        for p in primes:
            while n % p == 0:
                n //= p
        if n > 1:
            leftovers.add(n)
    return sorted(leftovers)


def adele_iso_verdict(
    K: NumberField,
    L: NumberField,
    B: int = DEFAULT_PRIME_BOUND,
) -> AdeleIsoVerdict:
    """Decide (to the extent certifiable) whether the adele rings of K and L match.

    Pipeline: (1) bounded arithmetic equivalence -- a splitting-type witness
    refutes isomorphism; (2) archimedean signatures must agree; (3) at every
    prime <= B where either field is bad, the (e, f) multisets must biject,
    and each matched pair is certified as _local_pair describes.  Pairs
    matched only on (e, f) downgrade the verdict to
    IsomorphicModuloAssumption, naming the assumption.
    """
    eq = arithmetic_equiv(K, L, B)
    verdict = partial(AdeleIsoVerdict, bound=B, excluded_primes=eq.excluded_primes)
    if eq.kind == NOT_EQUIVALENT:
        return verdict(
            NOT_ISOMORPHIC,
            reason=f"splitting types differ at p={eq.witness_prime}: {eq.type_k} vs {eq.type_l}",
            witness=eq.witness_prime,
        )
    sig_k, sig_l = signature(K), signature(L)
    if sig_k != sig_l:
        return verdict(
            NOT_ISOMORPHIC,
            reason=f"signature mismatch: ({sig_k.r1},{sig_k.r2}) vs ({sig_l.r1},{sig_l.r2})",
        )
    # The sweep ran to B without a witness, so its excluded primes are
    # exactly the primes <= B that are bad for K or L.
    matching: list[MatchedLocalPair] = []
    unmatched: list[UnmatchedLocalDatum] = []
    for p in eq.excluded_primes:
        dk, dl = decompose(K, p), decompose(L, p)
        for side, dec in (("K", dk), ("L", dl)):
            if not dec.is_resolved:
                reason = f"{side} at p={p}: {dec.reason}"
                return verdict(UNDETERMINED_VERDICT, reason=reason, witness=p)
        # _resolved sorts both factor tuples by (f, e).
        if dk.factors != dl.factors:
            reason = f"local (e, f) multisets differ at p={p}"
            return verdict(NOT_ISOMORPHIC, reason=reason, witness=p)
        for e, f in dk.factors:
            local = _local_pair(K, L, p, e, f)
            if local is None:
                return verdict(
                    NOT_ISOMORPHIC,
                    reason=(
                        f"residue rings at p={p} differ at truncation {keating_bound(p, e)}, "
                        "which separates the completions"
                    ),
                    witness=p,
                )
            (matching if isinstance(local, MatchedLocalPair) else unmatched).append(local)
    for n in _discriminant_cofactors(K, L, eq.excluded_primes):
        reason = f"discriminant cofactor {n} has prime divisors above the bound {B}"
        unmatched.append(UnmatchedLocalDatum(0, 0, 0, reason))
    if unmatched:
        return verdict(
            ISOMORPHIC_MODULO_ASSUMPTION,
            matching=tuple(matching),
            unmatched=tuple(unmatched),
            assumption_note=ASSUMPTION_NOTE,
        )
    return verdict(ISOMORPHIC_CERTIFIED, matching=tuple(matching))


def _local_pair(
    K: NumberField, L: NumberField, p: int, e: int, f: int
) -> MatchedLocalPair | UnmatchedLocalDatum | None:
    """Certify one (e, f) pair of the (already equal) local data of K and L at p.

    Identical defining polynomials certify every pair by identity.  An
    unramified pair (e = 1) is certified by its residue degree alone: the
    completion is the unramified extension of Q_p of degree f, so no ring is
    built.  A totally ramified pair (e = [K:Q], so f = 1 and one prime lies
    above p) is certified by comparing the Eisenstein residue rings at
    truncation keating_bound(p, e); a ring over the 2^20 order cap of
    find_ring_isomorphism leaves the pair unmatched.  Any other ramified pair
    stays unmatched.  Returns None when the rings differ, which refutes
    isomorphism.
    """
    if K.min_poly == L.min_poly:
        return MatchedLocalPair(p, e, f, "identical-local-data")
    if e == 1:
        return MatchedLocalPair(p, 1, f, "unramified-residue-ring", truncation=keating_bound(p, 1))
    if e != K.degree:
        reason = "ramified local datum without a supported presentation"
        return UnmatchedLocalDatum(p, e, f, reason)
    ek, el = _eisenstein_shift(K, p), _eisenstein_shift(L, p)
    if ek is None or el is None:
        return UnmatchedLocalDatum(p, e, f, "no Eisenstein presentation found for a shift")
    s = keating_bound(p, e)
    rings = [LocalQuotientRing(p, e, 1, E, s) for E in (ek, el)]
    try:
        iso = find_ring_isomorphism(*rings)
    except RingCapExceededError:
        return UnmatchedLocalDatum(p, e, f, "residue-ring order exceeds the cap")
    if iso is None:
        return None
    return MatchedLocalPair(p, e, f, "eisenstein-residue-ring", truncation=s)
