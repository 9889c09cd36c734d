"""The autoAx methodology: the paper's primary contribution.

Step 1 — :mod:`repro.core.preprocessing`: profile-driven WMED scoring and
per-operation Pareto filtering of the component library.
Step 2 — :mod:`repro.core.modeling`: training-set construction and
fidelity-driven selection of QoR / hardware estimation models.
Step 3 — :mod:`repro.core.dse`: model-based heuristic Pareto-set
construction (Algorithm 1) plus the random-sampling / uniform-selection /
exhaustive baselines, and :mod:`repro.core.pipeline` tying everything into
the end-to-end flow of Fig. 1.
"""

from repro.core.budget import EvaluationBudget, MeteredEstimator
from repro.core.wmed import wmed, wmed_table
from repro.core.configuration import ConfigurationSpace
from repro.core.preprocessing import pareto_filter_indices, reduce_library
from repro.core.pareto import (
    ParetoArchive,
    dominates,
    front_distances,
    hypervolume_2d,
    pareto_front_indices,
)
from repro.core.engine import EvaluationEngine, EvaluationResult
from repro.core.modeling import (
    EstimationModel,
    TrainingSet,
    build_training_set,
    fit_engines,
    select_best_model,
)
from repro.core.dse import (
    DSEResult,
    exhaustive_search,
    heuristic_pareto_construction,
    random_sampling,
    uniform_selection,
)
from repro.core.nsga2 import nsga2_search
from repro.core.pipeline import AutoAx, AutoAxConfig, AutoAxResult

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
