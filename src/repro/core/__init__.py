"""The autoAx methodology: the paper's primary contribution.

Step 1 — :mod:`repro.core.preprocessing`: profile-driven WMED scoring and
per-operation Pareto filtering of the component library.
Step 2 — :mod:`repro.core.modeling`: training-set construction and
fidelity-driven selection of QoR / hardware estimation models.
Step 3 — :mod:`repro.core.dse`: model-based heuristic Pareto-set
construction (Algorithm 1) plus the random-sampling / uniform-selection /
exhaustive baselines, and :mod:`repro.core.pipeline` tying everything into
the end-to-end flow of Fig. 1.

The public names resolve on first access (PEP 562), so importing a
submodule such as :mod:`repro.core.runtime` loads neither the
evaluation engine nor the learning engines.
"""

import importlib

# ``wmed`` is imported eagerly: the function shares its name with its
# submodule, and a later import of ``repro.core.wmed`` would otherwise
# rebind the package attribute to the module.
from repro.core.wmed import wmed, wmed_table

# Submodule -> the public names it defines, imported on first access.
_EXPORTS = {
    "budget": ("EvaluationBudget", "MeteredEstimator"),
    "configuration": ("ConfigurationSpace",),
    "preprocessing": ("pareto_filter_indices", "reduce_library"),
    "pareto": (
        "ParetoArchive",
        "dominates",
        "front_distances",
        "hypervolume_2d",
        "pareto_front_indices",
    ),
    "engine": ("EvaluationEngine", "EvaluationResult"),
    "modeling": (
        "EstimationModel",
        "TrainingSet",
        "build_training_set",
        "fit_engines",
        "select_best_model",
    ),
    "dse": (
        "DSEResult",
        "exhaustive_search",
        "heuristic_pareto_construction",
        "random_sampling",
        "uniform_selection",
    ),
    "nsga2": ("nsga2_search",),
    "pipeline": ("AutoAx", "AutoAxConfig", "AutoAxResult"),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [
    "EvaluationBudget",
    "MeteredEstimator",
    "wmed",
    "wmed_table",
    "ConfigurationSpace",
    "pareto_filter_indices",
    "reduce_library",
    "ParetoArchive",
    "dominates",
    "front_distances",
    "hypervolume_2d",
    "pareto_front_indices",
    "EvaluationEngine",
    "EvaluationResult",
    "EstimationModel",
    "TrainingSet",
    "build_training_set",
    "fit_engines",
    "select_best_model",
    "DSEResult",
    "heuristic_pareto_construction",
    "random_sampling",
    "uniform_selection",
    "exhaustive_search",
    "nsga2_search",
    "AutoAx",
    "AutoAxConfig",
    "AutoAxResult",
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
