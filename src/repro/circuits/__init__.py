"""Behavioural models of exact and approximate arithmetic circuits.

Every circuit is a bit-accurate, vectorised functional model of a hardware
implementation: it accepts numpy integer arrays (or Python ints) and returns
the value the gate-level circuit would produce.  Families implemented here
mirror the techniques behind the libraries the paper draws from
(EvoApprox8b, QuAd adders, GeAr adders, broken-array multipliers) plus the
classic approximate multiplier constructions (partial-product masking,
perforation, Kulkarni 2x2 recursion, Mitchell logarithm, DRUM).

The public names resolve on first access (PEP 562): importing one
family's module loads neither the netlist-backed wrapper nor the
netlist simulator.
"""

import importlib

# Submodule -> the public names it defines, imported on first access.
_EXPORTS = {
    "base": (
        "ArithmeticCircuit",
        "ExactAdder",
        "ExactMultiplier",
        "ExactSubtractor",
        "Operation",
    ),
    "adders": (
        "AlmostCorrectAdder",
        "GeArAdder",
        "LowerOrAdder",
        "QuAdAdder",
        "TruncatedAdder",
    ),
    "subtractors": (
        "BlockSubtractor",
        "TruncatedSubtractor",
    ),
    "multipliers": (
        "BrokenArrayMultiplier",
        "DrumMultiplier",
        "MaskedMultiplier",
        "MitchellMultiplier",
        "PerforatedMultiplier",
        "RecursiveApproxMultiplier",
        "TruncatedMultiplier",
    ),
    "characterization": (
        "ErrorStats",
        "characterize",
    ),
    "luts": (
        "build_lut",
        "lut_index",
    ),
    "netlist_backed": (
        "NetlistCircuit",
        "wrap_netlist",
    ),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [
    "ArithmeticCircuit",
    "Operation",
    "ExactAdder",
    "ExactSubtractor",
    "ExactMultiplier",
    "TruncatedAdder",
    "LowerOrAdder",
    "AlmostCorrectAdder",
    "GeArAdder",
    "QuAdAdder",
    "TruncatedSubtractor",
    "BlockSubtractor",
    "MaskedMultiplier",
    "TruncatedMultiplier",
    "BrokenArrayMultiplier",
    "PerforatedMultiplier",
    "RecursiveApproxMultiplier",
    "MitchellMultiplier",
    "DrumMultiplier",
    "ErrorStats",
    "NetlistCircuit",
    "characterize",
    "build_lut",
    "lut_index",
    "wrap_netlist",
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
