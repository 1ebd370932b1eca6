"""Tests for spectra, signatures, zeta data, equivalence and adele verdicts."""

from fractions import Fraction

import pytest

from adelic.corpus import corpus_field, corpus_fields
from adelic.exactpoly import IntPoly, parse_int_poly
from adelic.finring import _is_eisenstein_at
from adelic.invariants import (
    ResidueRing,
    RingUndetermined,
    Signature,
    UnresolvedPrimeError,
    adele_iso_verdict,
    aq_distinguisher,
    arithmetic_equiv,
    degree_via_split_prime,
    eisenstein_presentation,
    keating_bound,
    residue_ring_construct,
    signature,
    spectrum,
    zeta_local_factor,
    zeta_partial_coefficients,
)
from adelic.primes import is_prime, primes_up_to, valuation
from adelic.splitting import NumberField, SplittingType, decompose, good_prime_test, splitting_type

P = parse_int_poly


def series_product_counts(degrees, upto):
    """Oracle: coefficients of prod_j 1/(1 - T^(f_j)) by multiplying truncated
    geometric series term by term."""
    series = [1] + [0] * upto
    for f in degrees:
        geom = [1 if k % f == 0 else 0 for k in range(upto + 1)]
        series = [
            sum(series[i] * geom[k - i] for i in range(k + 1)) for k in range(upto + 1)
        ]
    return series


# ---------------------------------------------------------------------------
# Spectrum.


def test_spectrum_sqrt2_up_to_10():
    s = spectrum(corpus_field("Q(sqrt2)"), 10)
    as_dict = {t.degrees: ps for t, ps in s.entries.items()}
    assert as_dict == {(1, 1): (7,), (2,): (3, 5), (1,): (2,)}
    assert s.excluded == ()


def test_spectrum_degree_one_field():
    s = spectrum(corpus_field("Q"), 10)
    assert {t.degrees: ps for t, ps in s.entries.items()} == {(1,): (2, 3, 5, 7)}


def test_spectrum_sqrt3():
    s = spectrum(corpus_field("Q(sqrt3)"), 10)
    as_dict = {t.degrees: ps for t, ps in s.entries.items()}
    assert as_dict == {(2,): (5, 7), (1,): (2, 3)}


def test_spectrum_partitions_primes():
    for label in ("Q(sqrt2)", "undetermined-at-2", "deg7-pair-a"):
        K = corpus_field(label)
        s = spectrum(K, 60)
        seen = sorted(p for ps in s.entries.values() for p in ps) + sorted(s.excluded)
        assert sorted(seen) == list(primes_up_to(60))
        for t in s.entries:
            assert sum(t.degrees) <= K.degree


def test_spectrum_finite_support():
    # only finitely many types occur; all satisfy the degree bound
    s = spectrum(corpus_field("Q(zeta16)"), 200)
    assert len(s.entries) <= 2 ** corpus_field("Q(zeta16)").degree
    assert all(sum(t.degrees) <= 8 for t in s.entries)


# ---------------------------------------------------------------------------
# Signature, degree detection, distinguisher.


def test_signature_examples():
    assert signature(corpus_field("Q(sqrt2)")) == Signature(2, 0)
    assert signature(corpus_field("Q(i)")) == Signature(0, 1)
    assert signature(corpus_field("plastic-cubic")) == Signature(1, 1)


def test_signature_identity_corpus_wide():
    for K in corpus_fields():
        s = signature(K)
        assert s.r1 + 2 * s.r2 == K.degree
        assert s.r1 >= 0 and s.r2 >= 0


def test_degree_detection_examples():
    assert degree_via_split_prime(corpus_field("Q(sqrt2)"), 100) == (2, 7)
    assert degree_via_split_prime(corpus_field("Q"), 100) == (1, 2)
    assert degree_via_split_prime(corpus_field("Q(i)"), 100) == (2, 5)


def test_degree_detection_not_found():
    # no prime below 7 splits completely in the degree-7 pair fields
    assert degree_via_split_prime(corpus_field("deg7-pair-a"), 5) is None


def test_degree_detection_corpus():
    for K in corpus_fields():
        bound = 1000
        result = degree_via_split_prime(K, bound)
        while result is None:
            bound *= 2
            assert bound <= 4000, K.name()
            result = degree_via_split_prime(K, bound)
        detected, witness = result
        assert detected == K.degree, K.name()
        assert is_prime(witness)
        dec = decompose(K, witness)
        assert all(e == 1 and f == 1 for e, f in dec.factors)


def test_aq_distinguisher():
    assert aq_distinguisher(corpus_field("Q"), 20) == (2, 3, 5, 7, 11, 13, 17, 19)
    assert aq_distinguisher(corpus_field("Q(sqrt2)"), 100) == ()
    assert aq_distinguisher(corpus_field("plastic-cubic"), 100) == ()


def test_aq_distinguisher_corpus_dichotomy():
    for K in corpus_fields():
        hits = aq_distinguisher(K, 100)
        assert bool(hits) == (K.degree == 1), K.name()


def test_aq_distinguisher_matches_the_decomposition_sweep():
    """Oracle: decompose every good prime up to B and keep those with a
    single resolved (1, 1) factor."""
    for K in corpus_fields():
        for B in (2, 30, 300):
            sweep = []
            for p in primes_up_to(B):
                if K.poly_disc % p:
                    dec = decompose(K, p)
                    if dec.is_resolved and dec.factors == ((1, 1),):
                        sweep.append(p)
            assert aq_distinguisher(K, B) == tuple(sweep), (K.name(), B)


# ---------------------------------------------------------------------------
# Zeta data.


def test_zeta_local_factor_examples():
    K2 = corpus_field("Q(sqrt2)")
    assert zeta_local_factor(K2, 7).ideal_counts(4) == [1, 2, 3, 4, 5]
    assert zeta_local_factor(K2, 3).ideal_counts(4) == [1, 0, 1, 0, 1]


def test_zeta_local_counts_against_series_oracle():
    for label in ("Q(sqrt2)", "Q(cbrt2)", "deg7-pair-a"):
        K = corpus_field(label)
        for p in (2, 3, 5, 7, 11):
            dec = decompose(K, p)
            if not dec.is_resolved:
                continue
            degrees = splitting_type(dec).degrees
            assert zeta_local_factor(K, p).ideal_counts(6) == series_product_counts(degrees, 6)


def test_zeta_a1_is_one():
    for K in corpus_fields():
        if K.label == "undetermined-at-2":
            continue
        assert zeta_partial_coefficients(K, 1) == [1]


def test_zeta_coefficients_rational_field():
    # every n has exactly the one ideal (n)
    assert zeta_partial_coefficients(corpus_field("Q"), 30) == [1] * 30


def test_zeta_coefficients_gaussian_integers():
    # number of ideals of Z[i] of norm n (classical): 1,1,0,1,2,0,0,1,1,2 for n=1..10
    assert zeta_partial_coefficients(corpus_field("Q(i)"), 10) == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]


def test_zeta_unresolved_prime():
    with pytest.raises(UnresolvedPrimeError):
        zeta_partial_coefficients(corpus_field("undetermined-at-2"), 10)
    # restricting to odd primes avoids the undetermined decomposition at 2
    coeffs = zeta_partial_coefficients(corpus_field("undetermined-at-2"), 10, restrict_to=(3, 5, 7))
    assert coeffs[0] == 1 and coeffs[1] == 0  # no ideal of norm 2 contributes


# ---------------------------------------------------------------------------
# Arithmetic equivalence.


def test_equiv_sqrt2_sqrt3():
    v = arithmetic_equiv(corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt3)"), 100)
    assert v.kind == "NotEquivalent"
    assert v.witness_prime == 7
    assert v.type_k == SplittingType((1, 1)) and v.type_l == SplittingType((2,))
    assert v.degree_check


def test_equiv_reflexive():
    for label in ("Q(sqrt2)", "Q(cbrt2)", "deg7-pair-a"):
        K = corpus_field(label)
        v = arithmetic_equiv(K, K, 100)
        assert v.kind == "EquivalentUpToBound"
        assert v.degree_check


def test_equiv_symmetric():
    K, L = corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt3)")
    v1 = arithmetic_equiv(K, L, 100)
    v2 = arithmetic_equiv(L, K, 100)
    assert v1.kind == v2.kind == "NotEquivalent"
    assert v1.witness_prime == v2.witness_prime
    assert v1.type_k == v2.type_l and v1.type_l == v2.type_k
    assert v1.excluded_primes == v2.excluded_primes


def test_equiv_witness_reverifies():
    pairs = [("Q(sqrt2)", "Q(sqrt3)"), ("Q(sqrt2)", "Q(i)"), ("Q(cbrt2)", "plastic-cubic")]
    for a, b in pairs:
        v = arithmetic_equiv(corpus_field(a), corpus_field(b), 200)
        assert v.kind == "NotEquivalent"
        dk = decompose(corpus_field(a), v.witness_prime)
        dl = decompose(corpus_field(b), v.witness_prime)
        assert dk.is_resolved and dl.is_resolved
        assert splitting_type(dk) != splitting_type(dl)
        assert splitting_type(dk) == v.type_k and splitting_type(dl) == v.type_l


def test_equiv_degree7_pair():
    v = arithmetic_equiv(corpus_field("deg7-pair-a"), corpus_field("deg7-pair-b"), 200)
    assert v.kind == "EquivalentUpToBound"
    assert v.excluded_primes == (3, 7)
    assert v.degree_check
    assert v.compared_count == len(primes_up_to(200)) - 2


def test_equiv_degree_check_is_degree_equality():
    # the least completely split prime of the degree-7 pair is 1879, above
    # any bound a split-prime sweep from 50 would reach
    v = arithmetic_equiv(corpus_field("deg7-pair-a"), corpus_field("deg7-pair-b"), 50)
    assert v.kind == "EquivalentUpToBound"
    assert v.degree_check
    v = arithmetic_equiv(corpus_field("Q(sqrt2)"), corpus_field("Q(cbrt2)"), 50)
    assert not v.degree_check


def test_equiv_excludes_bad_primes():
    v = arithmetic_equiv(corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt3)"), 100)
    assert v.excluded_primes == (2, 3)  # 2 | 8, 2 | 12, 3 | 12


def test_equivalent_pair_euler_products_agree():
    K, L = corpus_field("deg7-pair-a"), corpus_field("deg7-pair-b")
    v = arithmetic_equiv(K, L, 100)
    assert v.kind == "EquivalentUpToBound"
    good = tuple(
        p for p in primes_up_to(100) if good_prime_test(K, p) and good_prime_test(L, p)
    )
    assert zeta_partial_coefficients(K, 100, restrict_to=good) == zeta_partial_coefficients(
        L, 100, restrict_to=good
    )


# ---------------------------------------------------------------------------
# Keating bound and residue rings.


def test_keating_examples():
    assert keating_bound(3, 1) == 2
    assert keating_bound(2, 2) == 5
    assert keating_bound(5, 1) == 2


def test_keating_unramified_is_two_for_all_primes():
    for p in primes_up_to(100):
        assert keating_bound(p, 1) == 2


def test_keating_strictness():
    # p/(p-1) + v_p(e)*e = 4 exactly at (2, 2): the least integer above is 5
    assert keating_bound(2, 2) == 5
    assert keating_bound(2, 4) == 11  # 2 + 2*4 = 10
    assert keating_bound(3, 3) == 5  # 3/2 + 3 = 4.5
    assert keating_bound(3, 2) == 2  # 3/2 + 0 = 1.5
    for p in primes_up_to(200):
        for e in range(2, 130):
            s = keating_bound(p, e)
            assert Fraction(s) > Fraction(p, p - 1) + valuation(e, p) * e
            assert Fraction(s - 1) <= Fraction(p, p - 1) + valuation(e, p) * e


def test_residue_ring_construct_unramified():
    r = residue_ring_construct(3, 1, 1, None, 2)
    assert isinstance(r, ResidueRing)
    assert r.order == 9 and r.characteristic == 9
    r = residue_ring_construct(2, 1, 2, None, 1)
    assert r.order == 4 and r.characteristic == 2


def test_residue_ring_construct_eisenstein():
    r = residue_ring_construct(2, 2, 1, P("x^2-2"), 2)
    assert isinstance(r, ResidueRing)
    assert r.order == 4 and r.characteristic == 2
    # explicitly not the ring of order 4 with characteristic 4
    z4 = residue_ring_construct(2, 1, 1, None, 2)
    assert z4.order == 4 and z4.characteristic == 4
    from adelic.finring import finite_ring_isomorphic

    assert not finite_ring_isomorphic(r.ring, z4.ring)


def test_residue_ring_order_characteristic_by_enumeration():
    for p, e, f, poly, s in [
        (2, 2, 1, "x^2-2", 2),
        (2, 2, 1, "x^2-2", 5),
        (3, 3, 1, "x^3-3", 4),
        (2, 2, 2, "x^2-2", 3),
    ]:
        r = residue_ring_construct(p, e, f, P(poly), s)
        assert isinstance(r, ResidueRing)
        assert r.order == len(list(r.ring.elements())) == p ** (f * s)
        # characteristic by direct enumeration of additive multiples of one
        n, acc = 1, r.ring.one
        while acc != r.ring.zero:
            acc = r.ring.add(acc, r.ring.one)
            n += 1
        assert n == r.characteristic == p ** (-(-s // e))


def test_residue_ring_undetermined_shapes():
    r = residue_ring_construct(2, 2, 1, None, 2)
    assert isinstance(r, RingUndetermined) and "no-local-factor" in r.reason
    r = residue_ring_construct(2, 2, 1, P("x^2-3"), 2)
    assert isinstance(r, RingUndetermined) and "not-eisenstein" in r.reason
    r = residue_ring_construct(2, 3, 1, P("x^2-2"), 2)
    assert isinstance(r, RingUndetermined) and "degree" in r.reason


def test_eisenstein_presentation_search():
    assert eisenstein_presentation(corpus_field("Q(sqrt2)"), 2) == P("x^2-2")
    assert eisenstein_presentation(corpus_field("Q(sqrt3)"), 2) == P("x^2+2*x-2")
    assert eisenstein_presentation(corpus_field("Q(i)"), 2) == P("x^2+2*x+2")
    assert eisenstein_presentation(corpus_field("Q(cbrt2)"), 2) == P("x^3-2")
    # not totally ramified at 7
    assert eisenstein_presentation(corpus_field("Q(sqrt2)"), 7) is None
    # totally ramified but no integer shift of the generator is a uniformizer
    K8 = NumberField(P("x^2-8"))
    assert decompose(K8, 2).factors == ((2, 1),)
    assert eisenstein_presentation(K8, 2) is None


def test_eisenstein_presentation_matches_full_shift_scan():
    """The root-restricted search returns the first c of the scan over [0, p^2)."""
    fields = list(corpus_fields()) + [
        NumberField(P(text).shift(c)) for text in ("x^2-2", "x^3-2", "x^2+1") for c in (3, 11)
    ]
    for K in fields:
        for p in (2, 3, 5, 7):
            dec = decompose(K, p)
            expected = None
            if dec.is_resolved and dec.factors == ((K.degree, 1),):
                shifts = (K.min_poly.shift(c) for c in range(p * p))
                expected = next((g for g in shifts if _is_eisenstein_at(g, p)), None)
            assert eisenstein_presentation(K, p) == expected, (K.name(), p)


def test_eisenstein_presentation_shifts_bounded_by_p(monkeypatch):
    p = 1009
    K = NumberField(P(f"x^2 - {p**3}"))
    assert decompose(K, p).factors == ((2, 1),)
    calls = []
    shift = IntPoly.shift

    def counting_shift(self, c):
        calls.append(c)
        return shift(self, c)

    monkeypatch.setattr(IntPoly, "shift", counting_shift)
    assert eisenstein_presentation(K, p) is None
    # only c = r and c = r + p for the root r = 0 of f mod p
    assert calls == [0, p]


# ---------------------------------------------------------------------------
# Adele-isomorphism pipeline.


def test_adele_reflexive_certified():
    for label in ("Q(sqrt2)", "Q(cbrt2)", "plastic-cubic", "deg7-pair-a"):
        v = adele_iso_verdict(corpus_field(label), corpus_field(label), 100)
        assert v.kind == "IsomorphicCertified", label
        assert all(m.certificate == "identical-local-data" for m in v.matching)


def test_adele_not_isomorphic_with_witness():
    v = adele_iso_verdict(corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt3)"), 100)
    assert v.kind == "NotIsomorphic"
    assert v.witness == 7
    assert "splitting types differ" in v.reason


def test_adele_signature_mismatch():
    # at bound 3 no good-for-both prime separates these fields, so the
    # archimedean comparison is what rejects
    v = adele_iso_verdict(corpus_field("Q(sqrt2)"), corpus_field("Q(i)"), 3)
    assert v.kind == "NotIsomorphic"
    assert "signature mismatch" in v.reason
    # a finite witness also exists, found by the full sweep
    v2 = arithmetic_equiv(corpus_field("Q(sqrt2)"), corpus_field("Q(i)"), 100)
    assert v2.kind == "NotEquivalent" and v2.witness_prime == 5


def test_adele_same_field_two_presentations_certified():
    K = corpus_field("Q(sqrt2)")
    L = NumberField(P("x^2 + 4*x + 2"), "shifted")
    v = adele_iso_verdict(K, L, 100)
    assert v.kind == "IsomorphicCertified"
    certs = {(m.prime, m.certificate) for m in v.matching}
    assert (2, "eisenstein-residue-ring") in certs


def test_adele_decomposes_each_field_at_each_prime_once(monkeypatch):
    import adelic.invariants as invariants

    calls = []
    decompose_once = invariants.decompose

    def counting_decompose(K, p):
        calls.append((K.min_poly, p))
        return decompose_once(K, p)

    monkeypatch.setattr(invariants, "decompose", counting_decompose)
    K = corpus_field("Q(sqrt2)")
    L = NumberField(P("x^2 + 4*x + 2"), "shifted")
    v = adele_iso_verdict(K, L, 30)
    assert [(m.prime, m.certificate) for m in v.matching] == [(2, "eisenstein-residue-ring")]
    assert calls.count((K.min_poly, 2)) == calls.count((L.min_poly, 2)) == 1
    assert len(calls) == len(set(calls))


def test_adele_ring_level_rejection():
    # Completions at 2 generated by roots of x^2-2 and x^2-6 differ; with the
    # sweep bound at 2 only the ring-level comparison can see it, and the
    # level-6 quotients separate (level 5 does not).
    K = corpus_field("Q(sqrt2)")
    L = NumberField(P("x^2 - 6"), "Q(sqrt6)")
    v = adele_iso_verdict(K, L, 3)
    assert v.kind == "NotIsomorphic"
    assert v.witness == 3  # the (e, f) multisets already differ at 3


def test_adele_undetermined_propagates():
    K = corpus_field("undetermined-at-2")
    v = adele_iso_verdict(K, K, 50)
    assert v.kind == "Undetermined"
    assert "p=2" in v.reason


def test_adele_assumption_for_unsupported_shapes():
    v = adele_iso_verdict(corpus_field("deg7-pair-a"), corpus_field("deg7-pair-b"), 200)
    assert v.kind == "IsomorphicModuloAssumption"
    assert v.assumption_note == "(e, f) determines the local field among candidates present"
    assert any(u.reason for u in v.unmatched)
    # the unramified part at 3 is still matched with a certificate
    assert any(m.prime == 3 and m.e == 1 and m.certificate == "unramified-residue-ring" for m in v.matching)


@pytest.mark.parametrize(
    "f, g, bound, kind, excluded",
    [
        ("x^8 - 3", "x^8 - 48", 10, "Undetermined", (2, 3)),
        ("x^2-5", "x^2-2", 2, "NotIsomorphic", (2,)),
        ("x^2-3", "x^2-7", 5, "NotIsomorphic", (2, 3)),
    ],
)
def test_adele_verdicts_after_the_sweep_list_its_excluded_primes(f, g, bound, kind, excluded):
    # Undetermined, local (e, f) and residue-ring verdicts come after a sweep
    # that reached the bound, so they list the primes it left out
    v = adele_iso_verdict(NumberField(P(f)), NumberField(P(g)), bound)
    assert v.kind == kind
    assert v.excluded_primes == excluded
    assert v.to_json_dict()["excluded_primes"] == excluded


def test_adele_leftover_disc_factors_block_certification():
    # with the bound below the bad prime 3 of x^2-6's discriminant, the
    # verdict must not claim a full certificate
    K = NumberField(P("x^2 - 6"), "Q(sqrt6)")
    v = adele_iso_verdict(K, K, 2)
    assert v.kind == "IsomorphicModuloAssumption"
    assert any("cofactor" in u.reason for u in v.unmatched)


def test_verdict_json_shapes():
    v = arithmetic_equiv(corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt3)"), 100)
    d = v.to_json_dict()
    assert d["kind"] == "NotEquivalent" and d["witness"] == 7
    assert d["type_k"] == [1, 1] and d["type_l"] == [2]
    v2 = adele_iso_verdict(corpus_field("Q(sqrt2)"), corpus_field("Q(sqrt2)"), 100)
    d2 = v2.to_json_dict()
    assert set(d2) >= {"kind", "witness", "matching", "excluded_primes", "bound"}
    assert d2["kind"] == "IsomorphicCertified"
