"""Figure 5 — final Pareto fronts: proposed vs random sampling vs uniform.

For each accelerator the driver produces three *real-evaluated* fronts in
(SSIM, area) space, mirroring the paper's comparison:

* **proposed** — the full autoAx pipeline (model-based Algorithm 1, then
  real analysis of the pseudo Pareto set);
* **random sampling** — randomly generated configurations evaluated for
  real with the same real-analysis budget as the proposed flow;
* **uniform selection** — the deterministic manual heuristic (equal
  relative WMED everywhere).

Front quality is summarised by the dominated hypervolume (higher is
better) in normalised (1 - SSIM, area) space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.dse import uniform_selection
from repro.core.engine import EvaluationEngine
from repro.core.pareto import hypervolume_2d, pareto_front_indices
from repro.core.pipeline import AutoAx, AutoAxConfig
from repro.experiments.setup import ExperimentSetup
from repro.experiments.table5_space import default_cases


@dataclass
class FrontSeries:
    """One method's real-evaluated front for one accelerator."""

    method: str
    points: np.ndarray  # columns: ssim, area (front members only)
    energy: np.ndarray
    evaluated: int
    hypervolume: float = 0.0


@dataclass
class Fig5Case:
    problem: str
    fronts: Dict[str, FrontSeries]


def _front(points: np.ndarray) -> np.ndarray:
    minimised = np.stack([-points[:, 0], points[:, 1]], axis=1)
    return pareto_front_indices(minimised)


def fig5_fronts(
    setup: ExperimentSetup,
    config: Optional[AutoAxConfig] = None,
    uniform_points: int = 30,
    cases=None,
    store=None,
) -> List[Fig5Case]:
    """Compute the three fronts per accelerator, with hypervolumes.

    ``store`` (an :class:`repro.store.ArtifactStore`) makes the embedded
    pipeline runs stage-cached and ledger-recorded.
    """
    if config is None:
        config = AutoAxConfig(
            n_train=200, n_test=100, max_evaluations=20_000,
            seed=setup.seed,
        )
    if cases is None:
        cases = default_cases(setup)
    out: List[Fig5Case] = []
    for label, accelerator, images, scenarios in cases:
        pipeline = AutoAx(
            accelerator, setup.library, images, scenarios=scenarios,
            config=config, store=store,
            run_kind="experiment", run_label=f"fig5:{label}",
        )
        result = pipeline.run()
        space = result.space
        evaluator = EvaluationEngine(accelerator, images, scenarios=scenarios)

        fronts: Dict[str, FrontSeries] = {}

        qor = np.asarray([r.qor for r in result.real_evaluations])
        area = np.asarray([r.area for r in result.real_evaluations])
        energy = np.asarray(
            [r.energy for r in result.real_evaluations]
        )
        keep = _front(np.stack([qor, area], axis=1))
        fronts["proposed"] = FrontSeries(
            method="proposed",
            points=np.stack([qor[keep], area[keep]], axis=1),
            energy=energy[keep],
            evaluated=len(result.real_evaluations),
        )

        # Random sampling with the same *real analysis* budget.
        budget = len(result.real_evaluations)
        rng_configs = space.random_configurations(
            budget, rng=setup.seed + 99
        )
        rs_results = evaluator.evaluate_many(space, rng_configs)
        rs_qor = np.asarray([r.qor for r in rs_results])
        rs_area = np.asarray([r.area for r in rs_results])
        rs_energy = np.asarray([r.energy for r in rs_results])
        keep = _front(np.stack([rs_qor, rs_area], axis=1))
        fronts["random"] = FrontSeries(
            method="random",
            points=np.stack([rs_qor[keep], rs_area[keep]], axis=1),
            energy=rs_energy[keep],
            evaluated=budget,
        )

        uni_configs = uniform_selection(space, uniform_points)
        uni_results = evaluator.evaluate_many(space, uni_configs)
        uni_qor = np.asarray([r.qor for r in uni_results])
        uni_area = np.asarray([r.area for r in uni_results])
        uni_energy = np.asarray([r.energy for r in uni_results])
        keep = _front(np.stack([uni_qor, uni_area], axis=1))
        fronts["uniform"] = FrontSeries(
            method="uniform",
            points=np.stack([uni_qor[keep], uni_area[keep]], axis=1),
            energy=uni_energy[keep],
            evaluated=len(uni_configs),
        )

        # Hypervolume in a shared normalised (1 - ssim, area) space.
        all_points = np.vstack([f.points for f in fronts.values()])
        area_high = float(all_points[:, 1].max()) * 1.05 + 1e-9
        for series in fronts.values():
            minimised = np.stack(
                [1.0 - series.points[:, 0], series.points[:, 1]], axis=1
            )
            series.hypervolume = hypervolume_2d(
                minimised, reference=(1.0, area_high)
            )
        out.append(Fig5Case(problem=label, fronts=fronts))
    return out
