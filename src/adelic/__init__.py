"""Prime splitting in number fields, adelic elementary invariants, and
generalized-product evaluation over finite families.

The package is organized as four layers:

* ``exactpoly`` -- exact integer and modular polynomial arithmetic,
* ``splitting`` -- prime decomposition in a number field,
* ``invariants`` -- splitting spectra, signatures, zeta data, and the
  arithmetic-equivalence / adele-isomorphism verdict pipeline,
* ``fv`` -- evaluation of generalized products over finite index sets.

The ``adelic`` command-line driver exposes all of it; see the README.

The public names below load their layer on first access (PEP 562), so
``import adelic`` and ``import adelic.cli`` pay only for the layers used.
"""

import importlib

# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(
        (
            "IntPoly",
            "ModPoly",
            "parse_int_poly",
            "gcd_modp",
            "squarefree_decomposition",
            "ddf",
            "cz_factor",
            "factor_modp",
            "resultant",
            "discriminant",
            "sturm_real_roots",
            "irreducible_modp",
        ),
        "exactpoly",
    ),
    **dict.fromkeys(
        (
            "NumberField",
            "PrimeDecomposition",
            "SplittingType",
            "good_prime_test",
            "kummer_decompose",
            "dedekind_index_test",
            "newton_polygon",
            "ore_local_decompose",
            "decompose",
            "splitting_type",
        ),
        "splitting",
    ),
    **dict.fromkeys(
        (
            "SplittingSpectrum",
            "Signature",
            "ArithEquivVerdict",
            "AdeleIsoVerdict",
            "spectrum",
            "signature",
            "degree_via_split_prime",
            "aq_distinguisher",
            "zeta_local_factor",
            "zeta_partial_coefficients",
            "arithmetic_equiv",
            "keating_bound",
            "residue_ring_construct",
            "adele_iso_verdict",
        ),
        "invariants",
    ),
    "finite_ring_isomorphic": "finring",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
