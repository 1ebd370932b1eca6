"""Built-in corpus of number fields used by the golden self-check suite.

Degrees 1 through 8, including the classical index-divisor cubic (the prime
2 divides [O_K : Z[alpha]]), a field whose decomposition at 2 is honestly
Undetermined at one level of Newton-polygon analysis, and a pair of degree-7
fields with identical splitting behavior at every good prime (checked up to
the configured bounds) that are nonetheless non-isomorphic.
"""

from __future__ import annotations

from functools import lru_cache

from .splitting import NumberField

# label, defining polynomial
CORPUS_SPECS: tuple[tuple[str, str], ...] = (
    ("Q", "x"),
    ("Q(sqrt2)", "x^2 - 2"),
    ("Q(sqrt3)", "x^2 - 3"),
    ("Q(i)", "x^2 + 1"),
    ("Q(sqrt5)", "x^2 - 5"),
    ("Q(zeta3)", "x^2 + x + 1"),
    ("Q(golden)", "x^2 - x - 1"),
    ("plastic-cubic", "x^3 - x - 1"),
    ("Q(cbrt2)", "x^3 - 2"),
    ("cubic-31", "x^3 + x + 1"),
    ("cyclic-cubic-9", "x^3 - 3*x - 1"),
    ("index-divisor-cubic", "x^3 + x^2 - 2*x + 8"),
    ("Q(fourthroot2)", "x^4 - 2"),
    ("Q(zeta8)", "x^4 + 1"),
    ("Q(sqrt2,sqrt3)", "x^4 - 10*x^2 + 1"),
    ("quartic-283", "x^4 - x - 1"),
    ("undetermined-at-2", "x^4 + 12"),
    ("Q(fifthroot2)", "x^5 - 2"),
    ("cyclic-quintic-11", "x^5 + x^4 - 4*x^3 - 3*x^2 + 3*x + 1"),
    ("Q(sixthroot2)", "x^6 - 2"),
    ("Q(zeta9)", "x^6 + x^3 + 1"),
    ("deg7-pair-a", "x^7 - 7*x + 3"),
    ("deg7-pair-b", "x^7 + 14*x^4 - 42*x^2 - 21*x + 9"),
    ("Q(seventhroot2)", "x^7 - 2"),
    ("Q(eighthroot2)", "x^8 - 2"),
    ("Q(zeta16)", "x^8 + 1"),
)


@lru_cache(maxsize=1)
def corpus_fields() -> tuple[NumberField, ...]:
    """The corpus as constructed NumberField values (cached)."""
    return tuple(NumberField.from_text(text, label=label) for label, text in CORPUS_SPECS)


def corpus_field(label: str) -> NumberField:
    for K in corpus_fields():
        if K.label == label:
            return K
    raise KeyError(f"no corpus field labeled {label!r}")
