"""Byte-identity of command output over the corpus.

The spectrum and large-prime digests were recorded from the output of the
exact-decomposition code before the distinct-degree stage moved to a single
Frobenius power; any change to the factoring kernel must leave them
unchanged.  The discriminant-prime digest was recorded before the Newton
polygon and the F_q residual arithmetic were rewritten; it pins the
Dedekind-cleared Kummer route and the one-level Newton route.  The fv-eval
and adele-iso digests were recorded before the residue rings moved to flat
coefficient lists; they pin the element codes of every stalk kind and the
ramified residue-ring certificates.  The Boolean-quantifier digest was
recorded before the ring and Boolean evaluators became one walk.  The
adele-iso branch digest was recorded, in text format, before the verdict
pipeline became one pass over the local pairs; it pins the reason and the
local entries of every verdict branch.  The residual-polynomial digest
was recorded, in text format, before the F_q residual polynomials moved
onto exactpoly's coefficient-list helpers; it pins split and inseparable
residuals over F_4, F_8, F_9, F_25, F_27 and F_125.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random

from adelic.cli import main
from adelic.corpus import CORPUS_SPECS
from adelic.exactpoly import IntPoly, discriminant, is_irreducible_modp, parse_int_poly
from adelic.primes import primes_up_to

# Three primes far beyond any sieve bound: about 10^6, 10^12 and 10^18.
LARGE_PRIMES = (1000003, 1000000000039, 1000000000000000003)


def _digest(argvs) -> str:
    """sha256 over the exit code and stdout of each command, in order."""
    h = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(f"{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def test_spectrum_output_of_every_corpus_field():
    argvs = [["spectrum", text, "--bound", "400", "--format", "json"] for _, text in CORPUS_SPECS]
    assert _digest(argvs) == "94432332704889553868d165bce1c803c4a56a22473f8d8171991ab21c4b2f6c"


def test_split_output_of_every_corpus_field_at_large_primes():
    argvs = [
        ["split", text, "--prime", str(p), "--format", "json"]
        for _, text in CORPUS_SPECS
        for p in LARGE_PRIMES
    ]
    assert _digest(argvs) == "d53e2d161ea36c95a551403f6c1f743a58cd27054d9483fd8d9f568f9a8c4bbe"


def test_split_output_of_every_corpus_field_at_discriminant_primes():
    argvs = [
        ["split", text, "--prime", str(p), "--format", "json"]
        for _, text in CORPUS_SPECS
        for p in primes_up_to(50)
        if discriminant(parse_int_poly(text)) % p == 0
    ]
    assert len(argvs) == 34
    assert _digest(argvs) == "bed228cb46df724d34160bf5a373db192a91fa64776b78adeeed938f8bcf8883"



def _residual_fields(count: int):
    """(f, p) with f = phi^k + p^m * g, the generator of the sympy sweep in
    test_splitting.py: phi monic irreducible mod p of degree 2 or 3, g of
    lower degree with a unit constant term, gcd(m, k) >= 2.  Nothing is
    filtered, so fields where p divides gcd(m, k) give an inseparable
    residual y^d + c and an Undetermined decomposition."""
    rng = random.Random(11)
    out = []
    while len(out) < count:
        p = rng.choice([2, 3, 5])
        deg_phi, k = rng.choice([(2, 2), (2, 3), (3, 2)])
        m = rng.choice([m for m in range(2, 9) if math.gcd(m, k) >= 2])
        phi = IntPoly([rng.randrange(p) for _ in range(deg_phi)] + [1])
        if not is_irreducible_modp(phi.reduce_mod(p)):
            continue
        g = IntPoly([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(deg_phi - 1)])
        out.append(((phi**k + IntPoly((p**m,)) * g).to_text(), p))
    return out


def test_split_text_of_residual_polynomials_over_fq():
    argvs = [["split", f, "--prime", str(p)] for f, p in _residual_fields(80)]
    assert _digest(argvs) == "6ffad110cf4026598504bcb9a1e9271bc08677e3efdce42683f905c238598968"

# Stalks of every LocalQuotientRing shape (GF with f <= 3, Unramified with
# s >= 2, Eisenstein with f = 1 and f = 2) next to a Zmod stalk.
FV_FAMILY = {
    "index": ["z", "g8", "g9", "g25", "u", "u27", "e", "e3", "ef", "ef3"],
    "stalks": {
        "z": {"kind": "Zmod", "m": 12},
        "g8": {"kind": "GF", "p": 2, "f": 3},
        "g9": {"kind": "GF", "p": 3, "f": 2},
        "g25": {"kind": "GF", "p": 5, "f": 2},
        "u": {"kind": "Unramified", "p": 2, "f": 2, "s": 3},
        "u27": {"kind": "Unramified", "p": 3, "f": 1, "s": 3},
        "e": {"kind": "Eisenstein", "p": 2, "e": 2, "s": 5, "coeffs": [-2, 0, 1]},
        "e3": {"kind": "Eisenstein", "p": 3, "e": 3, "s": 4, "coeffs": [3, 0, 0, 1]},
        "ef": {"kind": "Eisenstein", "p": 2, "e": 2, "f": 2, "s": 3, "coeffs": [2, 2, 1]},
        "ef3": {"kind": "Eisenstein", "p": 3, "e": 2, "f": 2, "s": 2, "coeffs": [3, 0, 1]},
    },
}
FV_ORDERS = {"z": 12, "g8": 8, "g9": 9, "g25": 25, "u": 64, "u27": 27, "e": 32, "e3": 81, "ef": 64, "ef3": 81}

# Each holds when every free variable is 0, so with zeros at the other
# stalks [[theta]] is the whole index set exactly when theta holds at the
# one stalk that gets non-zero codes.
FV_THETAS = (
    "exists y (y * w0 = w1 + w2)",
    "exists y (y * y = w0 + w1)",
    "exists y (y * y * y = w0 * w1)",
    "exists y (y + y = w0 * w1 + w2)",
    "forall y (y * w0 = 0 -> y * w1 = 0)",
)


def test_fv_eval_output_pins_element_codes(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FV_FAMILY))
    rng = random.Random(12)
    argvs = []
    for target in FV_FAMILY["index"]:
        for _ in range(5):
            codes = [rng.randrange(1, FV_ORDERS[target]) for _ in range(3)]
            elements = [
                {label: code if label == target else 0 for label in FV_FAMILY["index"]}
                for code in codes
            ]
            for theta in FV_THETAS:
                argvs.append(
                    ["fv-eval", "--family", str(family), "--psi", "v0 = 1", "--theta", theta,
                     "--elements", json.dumps(elements), "--format", "json"]
                )
    assert len(argvs) == 250
    assert _digest(argvs) == "913b924127aa7370bae6cb60ecdea2b8bb0e3d9a6aa368db1cc3a86f945b4b25"


# Presentation pairs (f, f(x+t)) whose residue rings have order <= 121, so
# every ramified prime is matched by the eisenstein-residue-ring certificate.
ADELE_PRESENTATION_PAIRS = (
    ("x^2-2", "x^2+4*x+2"),
    ("x^2-3", "x^2+2*x-2"),
    ("x^2+1", "x^2+2*x+2"),
    ("x^2-5", "x^2+2*x-4"),
    ("x^2+3", "x^2+2*x+4"),
    ("x^2-6", "x^2+2*x-5"),
    ("x^2-7", "x^2+2*x-6"),
    ("x^2-11", "x^2+2*x-10"),
)


def test_adele_iso_output_of_presentation_pairs():
    argvs = [["adele-iso", f, g, "--format", "json"] for f, g in ADELE_PRESENTATION_PAIRS]
    assert _digest(argvs) == "52a7f4c6e3f06ff42de7582fb9d380829af9cef4f5a670f3b5aac39a89fd50fe"


# One pair (and bound) for each branch of the adele-iso verdict.
ADELE_BRANCHES = (
    # a splitting-type witness
    ("x^2-2", "x^2-3"),
    # a signature mismatch
    ("x^2-2", "x^2+2", "--bound", "2"),
    # local (e, f) multisets that differ
    ("x^2-5", "x^2-2", "--bound", "2"),
    # residue rings that differ at the Keating level
    ("x^2-3", "x^2-7", "--bound", "5"),
    # Undetermined for L, then for K
    ("x^8 - 3", "x^8 - 48", "--bound", "10"),
    ("x^8 - 48", "x^8 - 3", "--bound", "10"),
    # identical defining polynomials, and a discriminant cofactor above the bound
    ("x^2-6", "x^2-6", "--bound", "2"),
    # totally ramified with no Eisenstein shift
    ("x^3-2", "x^3-4", "--bound", "2"),
    # unramified, unsupported ramified and over-cap entries at one verdict
    ("x^7 - 7*x + 3", "x^7 + 14*x^4 - 42*x^2 - 21*x + 9", "--bound", "164"),
    # an Eisenstein certificate next to a discriminant cofactor
    ("x^2 - 33*x - 11", "x^2 - 35*x + 23", "--bound", "100"),
)


def test_adele_iso_text_of_every_verdict_branch():
    argvs = [["adele-iso", *args] for args in ADELE_BRANCHES]
    assert _digest(argvs) == "348434df1556a89258f811a4ca069c9a0d6867d2d8f4a4ed57cb2b911f20a0ef"


# Fourteen small stalks of all four kinds, chosen so that each ring template
# below holds at some stalks and fails at others.
FV_BOOLE_FAMILY = {
    "index": ["z2", "z6", "z9", "z12", "z15", "g4", "g5", "g8", "g9", "u4", "u9", "u16", "e4", "e27"],
    "stalks": {
        "z2": {"kind": "Zmod", "m": 2},
        "z6": {"kind": "Zmod", "m": 6},
        "z9": {"kind": "Zmod", "m": 9},
        "z12": {"kind": "Zmod", "m": 12},
        "z15": {"kind": "Zmod", "m": 15},
        "g4": {"kind": "GF", "p": 2, "f": 2},
        "g5": {"kind": "GF", "p": 5, "f": 1},
        "g8": {"kind": "GF", "p": 2, "f": 3},
        "g9": {"kind": "GF", "p": 3, "f": 2},
        "u4": {"kind": "Unramified", "p": 2, "f": 1, "s": 2},
        "u9": {"kind": "Unramified", "p": 3, "f": 1, "s": 2},
        "u16": {"kind": "Unramified", "p": 2, "f": 2, "s": 2},
        "e4": {"kind": "Eisenstein", "p": 2, "e": 2, "s": 2, "coeffs": [-2, 0, 1]},
        "e27": {"kind": "Eisenstein", "p": 3, "e": 2, "s": 3, "coeffs": [3, 0, 1]},
    },
}

# The ring templates and the depth-1 and depth-2 Boolean templates of the
# fv-eval benchmark workload.
FV_RING_TEMPLATES = (
    "forall y (y = 0 or exists z (y * z = 1))",
    "forall y (y + y = 0)",
    "forall y (y + y + y = 0)",
    "forall y (y * y = 0 -> y = 0)",
    "exists y (y * y = y and not (y = 0) and not (y = 1))",
)
FV_BOOLE_TEMPLATES = (
    "exists v7 (v7 sub v0 and not (v7 = 0) and not (v7 = v0))",
    "forall v7 (v7 sub v0 -> v7 sub v1)",
    "exists v7 (v7 sub v0 and v7 sub v1 and not (v7 = 0))",
    "forall v7 (not (v7 = v0) or exists v8 (v8 sub v1 and v7 sub v8))",
    "forall v7 (not (v7 = v1) or exists v8 (v8 sub v7 and not (v8 = v7) and not (v8 = 0)))",
    "exists v7 (v7 = v1 and forall v8 (v8 sub v0 -> not (v8 = v7) or v8 = 0))",
)


def test_fv_eval_output_of_boolean_quantifiers(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FV_BOOLE_FAMILY))
    argvs = [
        ["fv-eval", "--family", str(family), "--psi", psi, "--theta", t0, "--theta", t1,
         "--format", "json"]
        for psi in FV_BOOLE_TEMPLATES
        for t0, t1 in itertools.permutations(FV_RING_TEMPLATES, 2)
    ]
    assert len(argvs) == 120
    assert _digest(argvs) == "b00171fb6c39a5e5d7eb534a1f063c27067e3bb7003c09dbb4d7018e0b5d1888"
