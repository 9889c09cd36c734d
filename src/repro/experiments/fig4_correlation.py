"""Figure 4 — correlation of estimated area vs. real (synthesised) area.

The paper scatter-plots estimated against real area for selected engines,
showing the naive model badly overestimating small accelerators (whose
logic the synthesiser collapses) while the random forest tracks the
diagonal.  This driver returns, per engine, the paired (real, estimated)
arrays plus Pearson correlation and relative RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.accelerators.profiler import profile_accelerator
from repro.accelerators.sobel import SobelEdgeDetector
from repro.core.engine import EvaluationEngine
from repro.core.modeling import build_training_set, fit_engines
from repro.core.preprocessing import reduce_library
from repro.experiments.setup import ExperimentSetup

#: Engines the paper highlights in the scatter plot.
FIG4_ENGINES = ("Random Forest", "Bayesian Ridge", "Decision Tree")


@dataclass
class Fig4Series:
    """Scatter data and summary statistics for one engine."""

    engine: str
    real_area: np.ndarray
    estimated_area: np.ndarray
    pearson_r: float
    relative_rmse: float


def fig4_correlation(
    setup: ExperimentSetup,
    n_train: int = 400,
    n_test: int = 400,
    engines: Sequence[str] = FIG4_ENGINES,
) -> List[Fig4Series]:
    """Estimated-vs-real area pairs on held-out configurations."""
    accelerator = SobelEdgeDetector()
    profiles = profile_accelerator(
        accelerator, setup.images, rng=setup.seed
    )
    space = reduce_library(accelerator, setup.library, profiles)
    evaluator = EvaluationEngine(accelerator, setup.images)
    train = build_training_set(space, evaluator, n_train, rng=setup.seed)
    test = build_training_set(
        space, evaluator, n_test, rng=setup.seed + 1
    )

    reports = fit_engines(
        space, train, test, target="area", engines=list(engines),
        include_naive=True, seed=setup.seed,
    )
    series: List[Fig4Series] = []
    real = test.area
    for report in reports:
        est = report.model.predict(test.configs)
        r = float(np.corrcoef(real, est)[0, 1]) if real.std() > 0 else 0.0
        rel_rmse = float(
            np.sqrt(np.mean((est - real) ** 2)) / max(real.mean(), 1e-12)
        )
        series.append(
            Fig4Series(
                engine=report.name,
                real_area=real.copy(),
                estimated_area=est,
                pearson_r=r,
                relative_rmse=rel_rmse,
            )
        )
    return series
