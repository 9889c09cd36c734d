"""Table 3 — fidelity of the learning engines on the Sobel edge detector.

Reproduces the paper's engine comparison: models are trained on randomly
drawn configurations of the reduced Sobel space and scored by train/test
fidelity for both the SSIM (QoR) and area (hardware) targets.  The paper
uses 1500 + 1500 configurations; the driver takes the counts as
parameters so quick runs remain possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.accelerators.profiler import profile_accelerator
from repro.accelerators.sobel import SobelEdgeDetector
from repro.core.modeling import build_training_set, fit_engines
from repro.core.engine import EvaluationEngine
from repro.core.preprocessing import reduce_library
from repro.experiments.setup import ExperimentSetup


@dataclass
class Table3Row:
    """One engine's train/test fidelity for both targets."""

    engine: str
    ssim_train: float
    ssim_test: float
    area_train: float
    area_test: float


def table3_fidelity(
    setup: ExperimentSetup,
    n_train: int = 600,
    n_test: int = 600,
    engines: Optional[Sequence[str]] = None,
) -> List[Table3Row]:
    """Fit all engines on the Sobel problem; rows sorted by SSIM test
    fidelity descending (the paper's row order criterion)."""
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

    qor_reports = fit_engines(
        space, train, test, target="qor", engines=engines,
        seed=setup.seed,
    )
    hw_reports = fit_engines(
        space, train, test, target="area", engines=engines,
        seed=setup.seed,
    )
    hw_by_name: Dict[str, object] = {r.name: r for r in hw_reports}

    rows = []
    for q in qor_reports:
        h = hw_by_name[q.name]
        rows.append(
            Table3Row(
                engine=q.name,
                ssim_train=q.fidelity_train,
                ssim_test=q.fidelity_test,
                area_train=h.fidelity_train,
                area_test=h.fidelity_test,
            )
        )
    rows.sort(key=lambda r: r.ssim_test, reverse=True)
    return rows
