"""Component library: characterised approximate circuits per operation.

Mirrors the role of EvoApprox8b + QuAd + BAM in the paper: for every
operation signature (kind, bit-width) the library holds many approximate
implementations, each fully characterised by error metrics (uniform-input)
and post-synthesis hardware parameters.

The public names resolve on first access (PEP 562): importing
:mod:`repro.library.component` loads neither the generators nor the
construction pipeline.
"""

import importlib

# Submodule -> the public names it defines, imported on first access.
_EXPORTS = {
    "component": (
        "FAMILY_REGISTRY",
        "ComponentRecord",
        "HardwareCost",
        "OpSignature",
        "record_from_circuit",
        "records_from_circuits",
    ),
    "library": ("ComponentLibrary",),
    "generation": (
        "GenerationPlan",
        "enumerate_adders",
        "enumerate_multipliers",
        "enumerate_plan",
        "enumerate_subtractors",
        "generate_adders",
        "generate_library",
        "generate_multipliers",
        "generate_subtractors",
        "paper_scale_plan",
        "scaled_plan",
    ),
    "io": (
        "load_library",
        "save_library",
    ),
    "pipeline": (
        "COMPONENT_KIND",
        "LibraryBuildResult",
        "LibraryBuildStats",
        "build_library",
        "component_key",
    ),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [
    "FAMILY_REGISTRY",
    "ComponentRecord",
    "HardwareCost",
    "OpSignature",
    "record_from_circuit",
    "records_from_circuits",
    "ComponentLibrary",
    "GenerationPlan",
    "enumerate_adders",
    "enumerate_subtractors",
    "enumerate_multipliers",
    "enumerate_plan",
    "generate_adders",
    "generate_subtractors",
    "generate_multipliers",
    "generate_library",
    "paper_scale_plan",
    "scaled_plan",
    "load_library",
    "save_library",
    "COMPONENT_KIND",
    "LibraryBuildResult",
    "LibraryBuildStats",
    "build_library",
    "component_key",
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
