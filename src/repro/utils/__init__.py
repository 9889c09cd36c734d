"""Shared low-level helpers: RNG handling, bit manipulation, validation.

The names resolve on first access (PEP 562), so importing
:mod:`repro.utils.validation` or :mod:`repro.utils.tabulate` does not
load numpy.
"""

import importlib

# Submodule -> the public names it defines, imported on first access.
_EXPORTS = {
    "bitops": (
        "bit_mask",
        "extract_bit",
        "min_bits_unsigned",
        "to_signed",
        "to_unsigned",
    ),
    "rng": ("ensure_rng", "spawn_rngs"),
    "tabulate": ("format_table",),
    "validation": (
        "check_in_range",
        "check_positive",
        "check_probability_vector",
    ),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [
    "bit_mask",
    "extract_bit",
    "min_bits_unsigned",
    "to_signed",
    "to_unsigned",
    "ensure_rng",
    "spawn_rngs",
    "format_table",
    "check_in_range",
    "check_positive",
    "check_probability_vector",
]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
