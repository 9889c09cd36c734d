"""Step 2 — construction of the QoR and hardware estimation models.

A training set of randomly drawn configurations is evaluated *for real*
(simulation + synthesis); learning engines are fitted on the per-component
features and ranked by test-set **fidelity** (paper §2.3).  The best
engine becomes the estimation model used during design-space exploration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import (
    HW_FEATURES,
    Configuration,
    ConfigurationSpace,
)
from repro.core.engine import EvaluationEngine
from repro.errors import ModelError
from repro.ml.base import Regressor
from repro.ml.fidelity import fidelity
from repro.ml.metrics import r2_score
from repro.ml.naive import NaiveAdditiveModel
from repro.ml.registry import default_engines, make_engine
from repro.utils.rng import RngLike, ensure_rng

#: Estimation targets supported out of the box.  ``qor`` uses the WMED
#: feature vector; the hardware targets use per-component area/power/delay.
TARGETS = ("qor", "area", "delay", "power", "energy")

#: Process-wide count of regressor fits (``EstimationModel.fit`` calls).
#: The experiment store's warm-start tests assert this stays flat across
#: a fully cached pipeline run — zero model refits.
_FIT_COUNT = 0


def fit_count() -> int:
    """Number of regressor fits performed by this process so far."""
    return _FIT_COUNT


@dataclass
class TrainingSet:
    """Real-evaluated configurations for model fitting."""

    configs: List[Configuration]
    qor: np.ndarray
    area: np.ndarray
    delay: np.ndarray
    power: np.ndarray

    @property
    def energy(self) -> np.ndarray:
        return self.power * self.delay

    def target(self, name: str) -> np.ndarray:
        if name == "qor":
            return self.qor
        if name == "area":
            return self.area
        if name == "delay":
            return self.delay
        if name == "power":
            return self.power
        if name == "energy":
            return self.energy
        raise ModelError(f"unknown target {name!r}; supported: {TARGETS}")

    def __len__(self) -> int:
        return len(self.configs)


def build_training_set(
    space: ConfigurationSpace,
    evaluator: EvaluationEngine,
    count: int,
    rng: RngLike = 0,
    workers: Optional[int] = None,
) -> TrainingSet:
    """Draw ``count`` random configurations and analyse them fully.

    ``workers`` is forwarded to the evaluation engine's ``evaluate_many``
    (process-parallel real evaluation); ``None`` keeps the evaluator's
    own default.
    """
    if count < 1:
        raise ModelError("training set needs at least one configuration")
    gen = ensure_rng(rng)
    configs = space.random_configurations(count, gen)
    # workers=None defers to the evaluator's own default.
    results = evaluator.evaluate_many(space, configs, workers=workers)
    return TrainingSet(
        configs=configs,
        qor=np.asarray([r.qor for r in results]),
        area=np.asarray([r.area for r in results]),
        delay=np.asarray([r.delay for r in results]),
        power=np.asarray([r.power for r in results]),
    )


class EstimationModel:
    """A fitted regressor bound to the space's feature extraction."""

    def __init__(
        self,
        name: str,
        regressor: Regressor,
        space: ConfigurationSpace,
        target: str,
        hw_features: Sequence[str] = HW_FEATURES,
    ):
        if target not in TARGETS:
            raise ModelError(f"unknown target {target!r}")
        self.name = name
        self.regressor = regressor
        self.space = space
        self.target = target
        self.hw_features = tuple(hw_features)

    def features(self, configs) -> np.ndarray:
        if self.target == "qor":
            return self.space.qor_features(configs)
        return self.space.hw_features(configs, self.hw_features)

    def fit(
        self, configs, y, workers: Optional[int] = None
    ) -> "EstimationModel":
        global _FIT_COUNT
        _FIT_COUNT += 1
        self.regressor.fit(
            self.features(configs), np.asarray(y, float), workers=workers
        )
        return self

    def predict(self, configs) -> np.ndarray:
        return self.regressor.predict(self.features(configs))

    def predict_one(self, config: Configuration) -> float:
        return float(self.predict([config])[0])


@dataclass
class EngineReport:
    """Fidelity / accuracy scores of one fitted engine."""

    name: str
    target: str
    fidelity_train: float
    fidelity_test: float
    r2_train: float
    r2_test: float
    fit_seconds: float
    model: EstimationModel = field(repr=False)


def naive_model(
    space: ConfigurationSpace,
    target: str,
    hw_features: Sequence[str] = HW_FEATURES,
) -> EstimationModel:
    """The paper's naive additive models (§4.1.2).

    Area: sum of the per-component areas.  QoR: negative sum of the
    per-component WMEDs.
    """
    if target == "qor":
        reg = NaiveAdditiveModel(sign=-1.0)
    elif target == "area":
        reg = NaiveAdditiveModel(
            columns=space.area_columns(hw_features), sign=1.0
        )
    else:
        raise ModelError(f"unknown target {target!r}")
    return EstimationModel("Naive model", reg, space, target, hw_features)


def fit_engines(
    space: ConfigurationSpace,
    train: TrainingSet,
    test: TrainingSet,
    target: str,
    engines: Optional[Sequence[str]] = None,
    include_naive: bool = True,
    hw_features: Sequence[str] = HW_FEATURES,
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[EngineReport]:
    """Fit every engine on ``train``, score fidelity on train and test.

    ``workers`` caps the processes an ensemble engine fits on (``None``:
    ``REPRO_WORKERS``, else every usable core); the reports do not
    depend on it.
    """
    names = list(engines) if engines is not None else default_engines()
    y_train = train.target(target)
    y_test = test.target(target)
    reports: List[EngineReport] = []

    candidates: List[Tuple[str, EstimationModel]] = [
        (
            name,
            EstimationModel(
                name, make_engine(name, seed), space, target, hw_features
            ),
        )
        for name in names
    ]
    if include_naive and target in ("qor", "area"):
        candidates.append(
            ("Naive model", naive_model(space, target, hw_features))
        )

    for name, model in candidates:
        start = time.perf_counter()
        model.fit(train.configs, y_train, workers=workers)
        elapsed = time.perf_counter() - start
        pred_train = model.predict(train.configs)
        pred_test = model.predict(test.configs)
        reports.append(
            EngineReport(
                name=name,
                target=target,
                fidelity_train=fidelity(y_train, pred_train),
                fidelity_test=fidelity(y_test, pred_test),
                r2_train=r2_score(y_train, pred_train),
                r2_test=r2_score(y_test, pred_test),
                fit_seconds=elapsed,
                model=model,
            )
        )
    return reports


def reports_to_payload(reports: Sequence[EngineReport]) -> List[Dict]:
    """Picklable payload of fitted engine reports (no space backrefs).

    The configuration space is deliberately excluded — it embeds the
    whole candidate library (LUT caches included) and is reconstructed
    from its own store artifact; :func:`reports_from_payload` rebinds the
    fitted regressors to a live space.
    """
    return [
        {
            "name": r.name,
            "target": r.target,
            "fidelity_train": r.fidelity_train,
            "fidelity_test": r.fidelity_test,
            "r2_train": r.r2_train,
            "r2_test": r.r2_test,
            "fit_seconds": r.fit_seconds,
            "hw_features": r.model.hw_features,
            "regressor": r.model.regressor,
        }
        for r in reports
    ]


def reports_from_payload(
    payload: Sequence[Dict], space: ConfigurationSpace
) -> List[EngineReport]:
    """Rebuild :class:`EngineReport` objects against a live ``space``."""
    reports = []
    for entry in payload:
        model = EstimationModel(
            entry["name"],
            entry["regressor"],
            space,
            entry["target"],
            entry["hw_features"],
        )
        reports.append(
            EngineReport(
                name=entry["name"],
                target=entry["target"],
                fidelity_train=entry["fidelity_train"],
                fidelity_test=entry["fidelity_test"],
                r2_train=entry["r2_train"],
                r2_test=entry["r2_test"],
                fit_seconds=entry["fit_seconds"],
                model=model,
            )
        )
    return reports


def select_best_model(reports: Sequence[EngineReport]) -> EngineReport:
    """Pick the engine with the highest *test* fidelity (paper §2.3)."""
    if not reports:
        raise ModelError("no engine reports to select from")
    return max(reports, key=lambda r: r.fidelity_test)
