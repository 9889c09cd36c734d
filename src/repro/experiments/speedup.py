"""§4.2 timing claim — model estimation vs full analysis.

The paper reports ~10 s for the full analysis (synthesis + simulation) of
one generic-GF configuration and ~0.01 s for its model-based estimate —
three orders of magnitude.  This driver measures both paths on the same
machine and reports the achieved speed-up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.accelerators.gaussian_generic import (
    GenericGaussianFilter,
    kernel_sweep,
)
from repro.accelerators.profiler import profile_accelerator
from repro.core.engine import EvaluationEngine
from repro.core.modeling import build_training_set, fit_engines, select_best_model
from repro.core.preprocessing import reduce_library
from repro.experiments.setup import ExperimentSetup


@dataclass
class SpeedupResult:
    analysis_seconds_per_config: float
    estimate_seconds_per_config: float

    @property
    def speedup(self) -> float:
        return (
            self.analysis_seconds_per_config
            / self.estimate_seconds_per_config
        )


def estimation_speedup(
    setup: ExperimentSetup,
    n_analysis: int = 10,
    n_estimates: int = 2000,
    n_train: int = 100,
    n_kernels: int = 5,
    n_images: int = 2,
) -> SpeedupResult:
    """Measure per-configuration cost of both evaluation paths."""
    accelerator = GenericGaussianFilter()
    images = setup.images[:n_images]
    scenarios = [
        GenericGaussianFilter.kernel_extra(w)
        for w in kernel_sweep(n_kernels)
    ]
    profiles = profile_accelerator(
        accelerator, images, scenarios=scenarios, rng=setup.seed
    )
    space = reduce_library(accelerator, setup.library, profiles)
    evaluator = EvaluationEngine(accelerator, images, scenarios=scenarios)

    train = build_training_set(
        space, evaluator, n_train, rng=setup.seed
    )
    test = build_training_set(
        space, evaluator, max(20, n_train // 2), rng=setup.seed + 1
    )
    qor_model = select_best_model(
        fit_engines(space, train, test, target="qor",
                    engines=["Random Forest"], seed=setup.seed)
    ).model
    hw_model = select_best_model(
        fit_engines(space, train, test, target="area",
                    engines=["Random Forest"], seed=setup.seed)
    ).model

    configs = space.random_configurations(
        max(n_analysis, 2), rng=setup.seed + 2
    )
    start = time.perf_counter()
    evaluator.evaluate_many(space, configs[:n_analysis])
    analysis = (time.perf_counter() - start) / n_analysis

    batch = space.random_configurations(n_estimates, rng=setup.seed + 3,
                                        unique=False)
    start = time.perf_counter()
    qor_model.predict(batch)
    hw_model.predict(batch)
    estimate = (time.perf_counter() - start) / n_estimates

    return SpeedupResult(
        analysis_seconds_per_config=analysis,
        estimate_seconds_per_config=estimate,
    )
