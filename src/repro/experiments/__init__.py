"""Experiment drivers: one module per paper table / figure.

Every driver is a plain function taking an :class:`ExperimentSetup` (or
explicit arguments) and returning the rows/series the paper reports, so
the pytest benchmarks, the examples and ad-hoc scripts all share one
implementation.  The drivers load on first access (PEP 562), so importing
:mod:`repro.experiments.setup` for a pipeline run does not import them.
"""

import importlib

# Driver module -> the public names it defines, imported on first access.
_EXPORTS = {
    "setup": ("ExperimentSetup", "default_setup"),
    "table1_operations": ("table1_rows",),
    "table2_library": ("table2_counts",),
    "fig3_pmf": ("fig3_profiles", "render_pmf_ascii"),
    "table3_fidelity": ("table3_fidelity",),
    "fig4_correlation": ("fig4_correlation",),
    "table4_dse": ("table4_distances",),
    "table5_space": ("table5_sizes",),
    "fig5_fronts": ("fig5_fronts",),
    "speedup": ("estimation_speedup",),
    "ablations": (
        "ablate_hw_features",
        "ablate_model_selection",
        "ablate_preprocessing",
        "ablate_qor_features",
        "ablate_restarts",
    ),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [
    "ablate_hw_features",
    "ablate_model_selection",
    "ablate_preprocessing",
    "ablate_qor_features",
    "ablate_restarts",
    "ExperimentSetup",
    "default_setup",
    "table1_rows",
    "table2_counts",
    "fig3_profiles",
    "render_pmf_ascii",
    "table3_fidelity",
    "fig4_correlation",
    "table4_distances",
    "table5_sizes",
    "fig5_fronts",
    "estimation_speedup",
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
