"""Byte-identity of command output over the corpus.

The spectrum and large-prime digests were recorded from the output of the
exact-decomposition code before the distinct-degree stage moved to a single
Frobenius power; any change to the factoring kernel must leave them
unchanged.  The discriminant-prime digest was recorded before the Newton
polygon and the F_q residual arithmetic were rewritten; it pins the
Dedekind-cleared Kummer route and the one-level Newton route.
"""

import contextlib
import hashlib
import io

from adelic.cli import main
from adelic.corpus import CORPUS_SPECS
from adelic.exactpoly import discriminant, parse_int_poly
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
