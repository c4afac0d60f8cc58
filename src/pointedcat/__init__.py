"""Exact construction and verification of pointed modular data from even lattices.

Build the data of an even integral lattice, check every defining identity
with zero numerical tolerance, compute fusion rules and colored framed-link
invariants, and classify small-rank pointed data up to relabeling.

The names below are loaded from their submodules on first access (PEP 562),
so importing one submodule, as ``python -m pointedcat.cli`` does, compiles
only what it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "cyclo": ("Cyclotomic", "root_of_unity"),
    "enumeration": (
        "CorpusSpec", "classify", "format_classification", "generate_gram_matrices",
    ),
    "errors": ("NotModular", "ParseError", "PointedCatError", "ValidationError"),
    "lattice": ("check_gram",),
    "links": ("framed_link",),
    "moddata": (
        "ModularData", "canonical_form", "colored_link_invariant", "from_lattice",
        "fusion_probabilities", "gauss_data", "quantum_dimensions", "verify_all",
        "verlinde_fusion",
    ),
    "serialization": ("Document", "parse", "parse_gram_text", "serialize"),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value
