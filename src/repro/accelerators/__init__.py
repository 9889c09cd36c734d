"""Accelerator models: dataflow IR, software simulation and profiling.

Each case-study accelerator exists in two coupled views, as the paper
requires: a *software model* (the dataflow graph evaluated with pluggable
operation implementations, used for QoR analysis) and a *hardware model*
(the same graph lowered to a composed gate netlist, used for synthesis).

The public names resolve on first access (PEP 562): importing one
accelerator module loads neither the profiler nor the window family.
"""

import importlib

# Submodule -> the public names it defines, imported on first access.
_EXPORTS = {
    "graph": (
        "DataflowGraph",
        "Node",
        "NodeKind",
    ),
    "base": (
        "ImageAccelerator",
        "OpSlot",
    ),
    "profiler": (
        "OperandProfile",
        "profile_accelerator",
    ),
    "sobel": ("SobelEdgeDetector",),
    "gaussian_fixed": ("FixedGaussianFilter",),
    "gaussian_generic": (
        "GenericGaussianFilter",
        "gaussian_kernel_weights",
    ),
    "window": (
        "WindowAccelerator",
        "WindowSpec",
        "gaussian_window",
        "quantize_kernel",
    ),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [
    "DataflowGraph",
    "Node",
    "NodeKind",
    "ImageAccelerator",
    "OpSlot",
    "OperandProfile",
    "profile_accelerator",
    "SobelEdgeDetector",
    "FixedGaussianFilter",
    "GenericGaussianFilter",
    "gaussian_kernel_weights",
    "WindowAccelerator",
    "WindowSpec",
    "gaussian_window",
    "quantize_kernel",
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
