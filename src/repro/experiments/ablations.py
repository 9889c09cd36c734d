"""Ablation studies of the methodology's design choices.

Each function isolates one decision the paper makes (or reports) and
measures its effect on the Sobel case study:

* :func:`ablate_model_selection` — select the estimation model by test
  *fidelity* (the paper's criterion) vs by test R^2 accuracy.
* :func:`ablate_preprocessing` — WMED-guided per-operation Pareto
  filtering vs a random subset of the same size.
* :func:`ablate_restarts` — Algorithm 1 with stagnation restarts vs a
  plain hill climber (no restarts) vs random sampling.
* :func:`ablate_hw_features` — hardware-model feature sets: area only
  vs area+power+delay (the paper reports ~2 % fidelity loss without
  power/delay, §4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.accelerators.profiler import profile_accelerator
from repro.accelerators.sobel import SobelEdgeDetector
from repro.core.configuration import ConfigurationSpace
from repro.core.dse import heuristic_pareto_construction, random_sampling
from repro.core.engine import EvaluationEngine
from repro.core.modeling import (
    build_training_set,
    fit_engines,
    select_best_model,
)
from repro.core.pareto import hypervolume_2d
from repro.core.preprocessing import reduce_library
from repro.core.wmed import wmed_table
from repro.experiments.setup import ExperimentSetup
from repro.utils.rng import ensure_rng


def _sobel_space_and_evaluator(setup: ExperimentSetup):
    accelerator = SobelEdgeDetector()
    profiles = profile_accelerator(
        accelerator, setup.images, rng=setup.seed
    )
    space = reduce_library(accelerator, setup.library, profiles)
    evaluator = EvaluationEngine(accelerator, setup.images)
    return accelerator, profiles, space, evaluator


# -- 1. fidelity vs accuracy model selection -----------------------------


@dataclass
class ModelSelectionAblation:
    by_fidelity: str
    by_r2: str
    fidelity_of_fidelity_choice: float
    fidelity_of_r2_choice: float
    front_hv_fidelity_choice: float
    front_hv_r2_choice: float


def ablate_model_selection(
    setup: ExperimentSetup,
    n_train: int = 300,
    n_test: int = 200,
    engines: Sequence[str] = (
        "Random Forest",
        "Decision Tree",
        "Gaussian process",
        "Bayesian Ridge",
        "K-Neighbors",
    ),
    max_evaluations: int = 5000,
    n_verify: int = 60,
) -> ModelSelectionAblation:
    """Compare fidelity-selected vs R^2-selected QoR models end to end.

    Both selections drive a full DSE + real verification pass; fronts are
    compared by hypervolume over the real (1-SSIM, area) points.
    """
    _, _, space, evaluator = _sobel_space_and_evaluator(setup)
    train = build_training_set(space, evaluator, n_train, rng=setup.seed)
    test = build_training_set(
        space, evaluator, n_test, rng=setup.seed + 1
    )
    qor_reports = fit_engines(
        space, train, test, target="qor", engines=list(engines),
        include_naive=False, seed=setup.seed,
    )
    hw_reports = fit_engines(
        space, train, test, target="area", engines=["Random Forest"],
        include_naive=False, seed=setup.seed,
    )
    hw_model = select_best_model(hw_reports).model

    by_fid = max(qor_reports, key=lambda r: r.fidelity_test)
    by_r2 = max(qor_reports, key=lambda r: r.r2_test)

    def front_points(qor_report) -> np.ndarray:
        pseudo = heuristic_pareto_construction(
            space, qor_report.model, hw_model,
            max_evaluations=max_evaluations, rng=setup.seed,
        )
        configs = pseudo.configs[:n_verify]
        real = evaluator.evaluate_many(space, configs)
        qor = np.array([r.qor for r in real])
        area = np.array([r.area for r in real])
        return np.stack([1.0 - qor, area], axis=1)

    fid_points = front_points(by_fid)
    r2_points = front_points(by_r2)
    ref = (
        1.0,
        max(fid_points[:, 1].max(), r2_points[:, 1].max()) * 1.05 + 1e-9,
    )
    return ModelSelectionAblation(
        by_fidelity=by_fid.name,
        by_r2=by_r2.name,
        fidelity_of_fidelity_choice=by_fid.fidelity_test,
        fidelity_of_r2_choice=by_r2.fidelity_test,
        front_hv_fidelity_choice=hypervolume_2d(fid_points, ref),
        front_hv_r2_choice=hypervolume_2d(r2_points, ref),
    )


# -- 2. WMED Pareto pre-processing vs random subset -------------------------


@dataclass
class PreprocessingAblation:
    pareto_sizes: List[int]
    random_sizes: List[int]
    pareto_front_hv: float
    random_front_hv: float


def _random_space(
    accelerator, library, profiles, sizes: Sequence[int], seed: int
) -> ConfigurationSpace:
    """A control space: per op, a *random* subset of the same size as
    the WMED-Pareto-reduced one (exact circuit force-included)."""
    gen = ensure_rng(seed)
    slots = accelerator.op_slots()
    choices = []
    wmeds = []
    for slot, size in zip(slots, sizes):
        candidates = library.components(slot.signature)
        exact_ids = [i for i, r in enumerate(candidates) if r.is_exact()]
        pool = list(range(len(candidates)))
        picks = set(
            gen.choice(len(pool), size=min(size, len(pool)),
                       replace=False).tolist()
        )
        if exact_ids and not picks & set(exact_ids):
            picks.pop()
            picks.add(exact_ids[0])
        chosen = sorted(picks)
        group = [candidates[i] for i in chosen]
        scores = wmed_table(group, profiles[slot.name])
        choices.append(group)
        wmeds.append(scores)
    return ConfigurationSpace(slots, choices, wmeds)


def ablate_preprocessing(
    setup: ExperimentSetup,
    n_train: int = 150,
    n_test: int = 80,
    max_evaluations: int = 4000,
    n_verify: int = 50,
) -> PreprocessingAblation:
    """WMED-Pareto library reduction vs equal-size random reduction."""
    accelerator, profiles, space, evaluator = _sobel_space_and_evaluator(
        setup
    )
    sizes = space.slot_sizes()
    random_space = _random_space(
        accelerator, setup.library, profiles, sizes, setup.seed + 7
    )

    def run(sp: ConfigurationSpace) -> np.ndarray:
        train = build_training_set(sp, evaluator, n_train, rng=setup.seed)
        test = build_training_set(
            sp, evaluator, n_test, rng=setup.seed + 1
        )
        qor = select_best_model(
            fit_engines(sp, train, test, target="qor",
                        engines=["Random Forest"], seed=setup.seed)
        ).model
        hw = select_best_model(
            fit_engines(sp, train, test, target="area",
                        engines=["Random Forest"], seed=setup.seed)
        ).model
        pseudo = heuristic_pareto_construction(
            sp, qor, hw, max_evaluations=max_evaluations, rng=setup.seed
        )
        real = evaluator.evaluate_many(sp, pseudo.configs[:n_verify])
        qor_v = np.array([r.qor for r in real])
        area_v = np.array([r.area for r in real])
        return np.stack([1.0 - qor_v, area_v], axis=1)

    pareto_points = run(space)
    random_points = run(random_space)
    # One shared reference so the two hypervolumes are comparable.
    ref_area = (
        max(pareto_points[:, 1].max(), random_points[:, 1].max()) * 1.05
        + 1e-9
    )
    reference = (1.0, ref_area)
    return PreprocessingAblation(
        pareto_sizes=sizes,
        random_sizes=random_space.slot_sizes(),
        pareto_front_hv=hypervolume_2d(pareto_points, reference),
        random_front_hv=hypervolume_2d(random_points, reference),
    )


# -- 3. restart strategy -------------------------------------------------------


@dataclass
class RestartAblation:
    with_restarts_size: int
    without_restarts_size: int
    random_sampling_size: int
    with_restarts_hv: float
    without_restarts_hv: float
    random_sampling_hv: float


def ablate_restarts(
    setup: ExperimentSetup,
    n_train: int = 150,
    n_test: int = 80,
    max_evaluations: int = 5000,
) -> RestartAblation:
    """Algorithm 1 vs no-restart hill climbing vs random sampling, on
    the *estimated* objective space (same models for all)."""
    _, _, space, evaluator = _sobel_space_and_evaluator(setup)
    train = build_training_set(space, evaluator, n_train, rng=setup.seed)
    test = build_training_set(
        space, evaluator, n_test, rng=setup.seed + 1
    )
    qor = select_best_model(
        fit_engines(space, train, test, target="qor",
                    engines=["Random Forest"], seed=setup.seed)
    ).model
    hw = select_best_model(
        fit_engines(space, train, test, target="area",
                    engines=["Random Forest"], seed=setup.seed)
    ).model

    with_restarts = heuristic_pareto_construction(
        space, qor, hw, max_evaluations=max_evaluations,
        stagnation_limit=50, rng=setup.seed,
    )
    # An effectively infinite stagnation limit disables restarts.
    without_restarts = heuristic_pareto_construction(
        space, qor, hw, max_evaluations=max_evaluations,
        stagnation_limit=10**9, rng=setup.seed,
    )
    sampled = random_sampling(
        space, qor, hw, max_evaluations=max_evaluations, rng=setup.seed
    )

    # Estimated QoR has whatever scale the selected model emits (the
    # naive model predicts negative WMED sums), so the hypervolume
    # reference is derived from the pooled minimisation-space points.
    pooled = np.vstack(
        [r.points for r in (with_restarts, without_restarts, sampled)]
    )
    pooled_min = np.stack([-pooled[:, 0], pooled[:, 1]], axis=1)
    span = pooled_min.max(axis=0) - pooled_min.min(axis=0)
    reference = pooled_min.max(axis=0) + 0.05 * np.where(
        span > 0, span, 1.0
    )

    def hv(points: np.ndarray) -> float:
        pts = np.stack([-points[:, 0], points[:, 1]], axis=1)
        return hypervolume_2d(pts, reference=tuple(reference))

    return RestartAblation(
        with_restarts_size=len(with_restarts),
        without_restarts_size=len(without_restarts),
        random_sampling_size=len(sampled),
        with_restarts_hv=hv(with_restarts.points),
        without_restarts_hv=hv(without_restarts.points),
        random_sampling_hv=hv(sampled.points),
    )


# -- 4. QoR feature sets ------------------------------------------------------


@dataclass
class QorFeatureAblation:
    fidelity_wmed_only: float
    fidelity_wmed_plus_variance: float


def ablate_qor_features(
    setup: ExperimentSetup,
    n_train: int = 300,
    n_test: int = 200,
) -> QorFeatureAblation:
    """§4.1.2's claim: adding per-component error variance to the WMED
    features does not improve QoR-model fidelity."""
    from repro.ml.fidelity import fidelity
    from repro.ml.forest import RandomForestRegressor

    _, _, space, evaluator = _sobel_space_and_evaluator(setup)
    train = build_training_set(space, evaluator, n_train, rng=setup.seed)
    test = build_training_set(
        space, evaluator, n_test, rng=setup.seed + 1
    )

    def run(with_variance: bool) -> float:
        def features(configs):
            X = space.qor_features(configs)
            if with_variance:
                X = np.hstack(
                    [X, space.error_stat_features(configs, "error_var")]
                )
            return X

        model = RandomForestRegressor(
            n_estimators=100, max_features=0.7, rng=setup.seed
        )
        model.fit(features(train.configs), train.qor)
        return fidelity(test.qor, model.predict(features(test.configs)))

    return QorFeatureAblation(
        fidelity_wmed_only=run(False),
        fidelity_wmed_plus_variance=run(True),
    )


# -- 5. hardware feature sets -----------------------------------------------


@dataclass
class HwFeatureAblation:
    fidelity_by_feature_set: Dict[str, float]


def ablate_hw_features(
    setup: ExperimentSetup,
    n_train: int = 300,
    n_test: int = 200,
) -> HwFeatureAblation:
    """Area-model fidelity with different per-component feature sets."""
    _, _, space, evaluator = _sobel_space_and_evaluator(setup)
    train = build_training_set(space, evaluator, n_train, rng=setup.seed)
    test = build_training_set(
        space, evaluator, n_test, rng=setup.seed + 1
    )
    results: Dict[str, float] = {}
    for features in (("area",), ("area", "power"),
                     ("area", "power", "delay")):
        reports = fit_engines(
            space, train, test, target="area",
            engines=["Random Forest"], include_naive=False,
            hw_features=features, seed=setup.seed,
        )
        results["+".join(features)] = reports[0].fidelity_test
    return HwFeatureAblation(fidelity_by_feature_set=results)
