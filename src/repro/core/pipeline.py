"""End-to-end autoAx pipeline (paper Fig. 1) with resumable stages.

``AutoAx.run()`` executes the three methodology steps against one
accelerator + library + benchmark-data triple and returns everything the
paper reports: design-space sizes after each step (Table 5), the chosen
estimation models with their fidelities (Table 3), the pseudo Pareto set,
and the final real-evaluated Pareto fronts in (SSIM, area) and
(SSIM, area, energy) space (Fig. 5).

When constructed with an :class:`~repro.store.ArtifactStore`, the run
decomposes into five cache-aware stages —

    preprocessing  -> training_set -> model_construction
                   -> pseudo_pareto -> final_analysis

— each keyed by the content hash of its exact inputs (accelerator
dataflow graph, library, benchmark images, stage parameters, upstream
artifact keys; :mod:`repro.core.identity` names the first three, by
content or by store keys that fix it).  A stage whose key is already in
the store is *skipped*: its artifact is decoded instead of recomputed,
so a repeated run with a warm store performs no profiling, no synthesis,
no model fitting and no DSE.  Each stage draws from its own seeded RNG
stream (derived from ``config.seed``), so a resumed run that skips some
stages produces bit-identical downstream results to a cold run.  Every
invocation is recorded in the :class:`~repro.store.RunLedger` as a
manifest (params, config hash, per-stage timing and cache outcome,
artifact refs) — the basis of ``repro runs list|show|resume|gc``.

The parallel stages (real evaluation, the random-forest fit) fan out
over the process-wide worker count that
:func:`repro.core.runtime.default_workers` resolves.  The count is not
part of :class:`AutoAxConfig`, so it never enters a stage key: any
count gives the same artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.accelerators.base import ImageAccelerator
from repro.accelerators.profiler import OperandProfile, profile_accelerator
from repro.core.configuration import Configuration, ConfigurationSpace
from repro.core.dse import DSEResult, heuristic_pareto_construction
from repro.core.engine import EvaluationEngine, EvaluationResult
from repro.core.identity import (  # config and stages re-exported here
    PIPELINE_STAGES,
    AutoAxConfig,
    config_hash,
    stage_inputs,
)
from repro.core.modeling import (
    EngineReport,
    TrainingSet,
    build_training_set,
    fit_count,
    fit_engines,
    reports_from_payload,
    reports_to_payload,
    select_best_model,
)
from repro.core.pareto import pareto_front_indices
from repro.core.preprocessing import reduce_library
from repro.library.component import ComponentRecord
from repro.library.library import ComponentLibrary
from repro.store.replay import idle_engine_stats
from repro.telemetry import complete_event, get_metrics
from repro.utils.rng import spawn_rngs


@dataclass
class AutoAxResult:
    """Everything produced by one pipeline run."""

    space: ConfigurationSpace
    profiles: Dict[str, OperandProfile]
    initial_space_size: float
    reduced_space_size: float
    qor_reports: List[EngineReport]
    hw_reports: List[EngineReport]
    qor_model: EngineReport
    hw_model: EngineReport
    pseudo_pareto: DSEResult
    real_evaluations: List[EvaluationResult]
    final_configs: List[Configuration]
    final_points: np.ndarray  # columns: qor (ssim), area
    final_configs_3d: List[Configuration]
    final_points_3d: np.ndarray  # columns: qor, area, energy
    timings: Dict[str, float] = field(default_factory=dict)
    #: stage name -> "hit" / "miss" / "off" (no store attached)
    stage_cache: Dict[str, str] = field(default_factory=dict)
    #: ledger id of this invocation (None without a ledger)
    run_id: Optional[str] = None
    #: synthesis/fit counters of this run (zeros when fully cached)
    engine_stats: Dict[str, object] = field(default_factory=dict)
    #: ``{kind, key}`` of every store artifact the stages read or wrote
    artifacts: List[Dict[str, str]] = field(default_factory=list)

    def summary_row(self) -> Dict[str, float]:
        """The Table 5 row of this run."""
        return {
            "all_possible": self.initial_space_size,
            "after_preprocessing": self.reduced_space_size,
            "pseudo_pareto": float(len(self.pseudo_pareto)),
            "final_pareto": float(len(self.final_configs)),
        }


class AutoAx:
    """The autoAx methodology bound to one accelerator instance.

    ``store`` enables persistent stage caching; ``ledger`` (defaulting
    to one at the store root) records the run manifest.  ``run_kind``,
    ``run_label`` and ``run_params`` annotate the manifest so ``repro
    runs resume`` can re-execute the invocation.

    ``inputs`` names the ``accelerator``, ``library`` and ``images``
    parts of the stage keys by identities that already fix them (the
    CLI passes the library's and the images' store keys); a part it
    leaves out is fingerprinted from content, as
    :mod:`repro.store.hashing` describes.
    """

    def __init__(
        self,
        accelerator: ImageAccelerator,
        library: ComponentLibrary,
        images: Sequence[np.ndarray],
        scenarios: Optional[Sequence[Dict[str, int]]] = None,
        config: AutoAxConfig = AutoAxConfig(),
        store=None,
        ledger=None,
        run_kind: str = "autoax",
        run_label: Optional[str] = None,
        run_params: Optional[Dict] = None,
        inputs: Optional[Dict[str, str]] = None,
    ):
        self.accelerator = accelerator
        self.library = library
        self.images = list(images)
        self.scenarios = scenarios
        self.config = config
        self.store = store
        if ledger is None and store is not None:
            from repro.store import RunLedger

            ledger = RunLedger(store)
        self.ledger = ledger
        self.run_kind = run_kind
        self.run_label = run_label or accelerator.name
        self.run_params = dict(run_params or {})
        self.inputs = dict(inputs or {})
        self._engine: Optional[EvaluationEngine] = None
        self._acc_hash: Optional[str] = self.inputs.get("accelerator")

    # -- individual steps ---------------------------------------------------

    def profile(self) -> Dict[str, OperandProfile]:
        """Step 1a: operand PMFs of every replaceable operation."""
        return profile_accelerator(
            self.accelerator,
            self.images,
            scenarios=self.scenarios,
            max_samples=self.config.max_samples,
            rng=self.config.seed,
        )

    def reduce(
        self, profiles: Dict[str, OperandProfile]
    ) -> ConfigurationSpace:
        """Step 1b: WMED scoring + per-operation Pareto filtering."""
        return reduce_library(
            self.accelerator,
            self.library,
            profiles,
            per_op_cap=self.config.per_op_cap,
        )

    def initial_space_size(self) -> float:
        """|library(op_1)| * ... * |library(op_n)| before filtering."""
        total = 1.0
        for slot in self.accelerator.op_slots():
            total *= self.library.size(slot.signature)
        return total

    # -- engine (lazy: a fully cached run never builds it) ------------------

    def engine(self) -> EvaluationEngine:
        """The real-evaluation engine, built on first use.

        Construction simulates the golden outputs, so a warm run that
        skips every evaluation stage also skips this cost.  With a store
        attached, the engine's synthesis memo is backed by a
        store-persistent cache scoped to this accelerator.
        """
        if self._engine is None:
            synth_cache = None
            if self.store is not None:
                from repro.store import synth_cache_for

                synth_cache = synth_cache_for(
                    self.store, self._accelerator_hash()
                )
            self._engine = EvaluationEngine(
                self.accelerator,
                self.images,
                self.scenarios,
                synth_cache=synth_cache,
            )
        return self._engine

    def _accelerator_hash(self) -> str:
        if self._acc_hash is None:
            from repro.store import accelerator_fingerprint, content_hash

            self._acc_hash = content_hash(
                accelerator_fingerprint(self.accelerator)
            )
        return self._acc_hash

    def _stage_inputs(self) -> Dict[str, object]:
        """The input part of every stage key (see :attr:`inputs`)."""
        from repro.store import (
            content_hash,
            images_fingerprint,
            library_fingerprint,
        )

        library = self.inputs.get("library")
        if library is None:
            library = content_hash(library_fingerprint(self.library))
        images = self.inputs.get("images")
        if images is None:
            images = content_hash(images_fingerprint(self.images))
        return stage_inputs(
            self._accelerator_hash(), library, images, self.scenarios
        )

    # -- stage payloads -----------------------------------------------------

    def _space_payload(self, space: ConfigurationSpace) -> Dict:
        return {
            "slots": [
                [slot.name, slot.signature[0], slot.signature[1]]
                for slot in space.slots
            ],
            "choices": [
                [record.to_dict() for record in group]
                for group in space.choices
            ],
            "wmeds": [w.tolist() for w in space.wmeds],
        }

    def _space_from_payload(
        self, payload: Dict
    ) -> Optional[ConfigurationSpace]:
        """Rebuild the reduced space; ``None`` if it no longer matches."""
        slots = self.accelerator.op_slots()
        recorded = [
            (name, (kind, width))
            for name, kind, width in payload.get("slots", [])
        ]
        if [(s.name, s.signature) for s in slots] != recorded:
            return None
        choices = [
            [ComponentRecord.from_dict(d) for d in group]
            for group in payload["choices"]
        ]
        return ConfigurationSpace(slots, choices, payload["wmeds"])

    @staticmethod
    def _training_payload(ts: TrainingSet) -> Dict:
        return {
            "configs": [list(c) for c in ts.configs],
            "qor": ts.qor.tolist(),
            "area": ts.area.tolist(),
            "delay": ts.delay.tolist(),
            "power": ts.power.tolist(),
        }

    @staticmethod
    def _training_from_payload(payload: Dict) -> TrainingSet:
        return TrainingSet(
            configs=[tuple(c) for c in payload["configs"]],
            qor=np.asarray(payload["qor"], dtype=float),
            area=np.asarray(payload["area"], dtype=float),
            delay=np.asarray(payload["delay"], dtype=float),
            power=np.asarray(payload["power"], dtype=float),
        )

    # -- full pipeline ------------------------------------------------------

    def run(
        self,
        final_analysis: bool = True,
        metrics_since: Optional[Dict] = None,
        result_key: Optional[str] = None,
    ) -> AutoAxResult:
        """Execute the stages in order; return everything they produced.

        ``final_analysis=False`` stops after ``pseudo_pareto``: stage 5
        is neither run nor recorded, and the result's real-evaluated
        fields are empty.  This is ``repro search``.  The choice is no
        part of :class:`AutoAxConfig`, so it enters no stage key.
        ``metrics_since`` (a :meth:`MetricsRegistry.mark`) opens the
        manifest's metrics window earlier than this call, e.g. before
        the caller built the library; by default it opens here.
        ``result_key`` names the ``result`` artifact under which the
        caller records this run's outcome; the manifest references it,
        so ``repro runs gc`` keeps it.
        """
        cfg = self.config
        store = self.store
        timings: Dict[str, float] = {}
        stage_cache: Dict[str, str] = {}
        stage_records: List[Dict] = []
        fits_before = fit_count()
        metrics = get_metrics()
        metrics_mark = (
            metrics.mark() if metrics_since is None else metrics_since
        )
        metrics.inc("pipeline.runs")

        # Independent per-stage RNG streams: skipping a cached stage
        # must not shift the randomness of the stages that still run.
        rng_train, rng_test, rng_dse = spawn_rngs(cfg.seed, 3)

        base: Dict[str, object] = {}
        run_hash = None
        if store is not None:
            base = self._stage_inputs()
            run_hash = config_hash(base, cfg)

        def key_of(payload: Dict) -> Optional[str]:
            if store is None:
                return None
            from repro.store import content_hash

            return content_hash(payload)

        def record_stage(name: str, seconds: float, cache: str,
                         artifacts: List[Dict]) -> None:
            timings[name] = seconds
            stage_cache[name] = cache
            stage_records.append(
                {
                    "name": name,
                    "seconds": round(seconds, 6),
                    "cache": cache,
                    "artifacts": artifacts,
                }
            )
            metrics.observe(f"pipeline.stage_seconds.{name}", seconds)
            metrics.inc(f"pipeline.stage_{cache}")
            complete_event(
                f"pipeline.{name}", seconds, cat="pipeline",
                args={"cache": cache},
            )

        # ---- stage 1: characterize + reduce (preprocessing) -------------
        start = time.perf_counter()
        pre_key = key_of(
            {
                "stage": "preprocessing",
                **base,
                "max_samples": cfg.max_samples,
                "per_op_cap": cfg.per_op_cap,
                "seed": cfg.seed,
            }
        )
        space = None
        profiles: Optional[Dict[str, OperandProfile]] = None
        if store is not None:
            payload = store.get("space", pre_key)
            cached_profiles = store.get("profiles", pre_key)
            if payload is not None and cached_profiles is not None:
                space = self._space_from_payload(payload)
                profiles = cached_profiles
        if space is None:
            profiles = self.profile()
            space = self.reduce(profiles)
            if store is not None:
                payload = self._space_payload(space)
                store.put("space", pre_key, payload)
                store.put("profiles", pre_key, profiles)
            cache = "miss" if store is not None else "off"
        else:
            cache = "hit"
        space_hash = key_of({"space": payload}) if store is not None \
            else None
        record_stage(
            "preprocessing",
            time.perf_counter() - start,
            cache,
            [] if store is None else [
                {"kind": "space", "key": pre_key},
                {"kind": "profiles", "key": pre_key},
            ],
        )

        # ---- stage 2: real-evaluated training/test sets ------------------
        start = time.perf_counter()
        set_keys = {}
        sets: Dict[str, Optional[TrainingSet]] = {
            "train": None, "test": None,
        }
        counts = {"train": cfg.n_train, "test": cfg.n_test}
        rngs = {"train": rng_train, "test": rng_test}
        hits = 0
        for role in ("train", "test"):
            set_keys[role] = key_of(
                {
                    "stage": "training-set",
                    "role": role,
                    "space": space_hash,
                    "accelerator": base.get("accelerator"),
                    "images": base.get("images"),
                    "scenarios": base.get("scenarios"),
                    "count": counts[role],
                    "seed": cfg.seed,
                }
            )
            if store is not None:
                payload = store.get("training-set", set_keys[role])
                if payload is not None:
                    sets[role] = self._training_from_payload(payload)
                    hits += 1
                    continue
            sets[role] = build_training_set(
                space, self.engine(), counts[role], rng=rngs[role]
            )
            if store is not None:
                store.put(
                    "training-set",
                    set_keys[role],
                    self._training_payload(sets[role]),
                )
        train, test = sets["train"], sets["test"]
        record_stage(
            "training_set",
            time.perf_counter() - start,
            "off" if store is None else ("hit" if hits == 2 else "miss"),
            [] if store is None else [
                {"kind": "training-set", "key": set_keys[r]}
                for r in ("train", "test")
            ],
        )

        # ---- stage 3: estimation-model construction ----------------------
        start = time.perf_counter()
        models_key = key_of(
            {
                "stage": "models",
                "train": set_keys["train"],
                "test": set_keys["test"],
                "space": space_hash,
                "engines": list(cfg.engines),
                "include_naive": cfg.include_naive,
                "hw_features": list(cfg.hw_features),
                "seed": cfg.seed,
            }
        )
        qor_reports = hw_reports = None
        if store is not None:
            payload = store.get("models", models_key)
            if payload is not None:
                qor_reports = reports_from_payload(payload["qor"], space)
                hw_reports = reports_from_payload(payload["hw"], space)
        if qor_reports is None:
            qor_reports = fit_engines(
                space, train, test, target="qor",
                engines=cfg.engines, include_naive=cfg.include_naive,
                hw_features=cfg.hw_features, seed=cfg.seed,
            )
            hw_reports = fit_engines(
                space, train, test, target="area",
                engines=cfg.engines, include_naive=cfg.include_naive,
                hw_features=cfg.hw_features, seed=cfg.seed,
            )
            if store is not None:
                store.put(
                    "models",
                    models_key,
                    {
                        "qor": reports_to_payload(qor_reports),
                        "hw": reports_to_payload(hw_reports),
                    },
                )
            cache = "miss" if store is not None else "off"
        else:
            cache = "hit"
        qor_best = select_best_model(qor_reports)
        hw_best = select_best_model(hw_reports)
        record_stage(
            "model_construction",
            time.perf_counter() - start,
            cache,
            [] if store is None else [
                {"kind": "models", "key": models_key}
            ],
        )

        # ---- stage 4: model-driven DSE (pseudo Pareto) -------------------
        start = time.perf_counter()
        dse_key = key_of(
            {
                "stage": "dse",
                "models": models_key,
                "max_evaluations": cfg.max_evaluations,
                "stagnation_limit": cfg.stagnation_limit,
                "seed": cfg.seed,
            }
        )
        pseudo = None
        if store is not None:
            payload = store.get("dse", dse_key)
            if payload is not None:
                points = np.asarray(payload["points"], dtype=float)
                pseudo = DSEResult(
                    configs=[tuple(c) for c in payload["configs"]],
                    points=points.reshape(len(payload["configs"]), -1),
                    evaluations=payload["evaluations"],
                    inserts=payload["inserts"],
                    restarts=payload["restarts"],
                )
        if pseudo is None:
            pseudo = heuristic_pareto_construction(
                space,
                qor_best.model,
                hw_best.model,
                max_evaluations=cfg.max_evaluations,
                stagnation_limit=cfg.stagnation_limit,
                rng=rng_dse,
            )
            if store is not None:
                store.put(
                    "dse",
                    dse_key,
                    {
                        "configs": [list(c) for c in pseudo.configs],
                        "points": pseudo.points.tolist(),
                        "evaluations": pseudo.evaluations,
                        "inserts": pseudo.inserts,
                        "restarts": pseudo.restarts,
                    },
                )
            cache = "miss" if store is not None else "off"
        else:
            cache = "hit"
        record_stage(
            "pseudo_pareto",
            time.perf_counter() - start,
            cache,
            [] if store is None else [{"kind": "dse", "key": dse_key}],
        )

        # ---- stage 5: real evaluation of the pseudo Pareto set -----------
        real: List[EvaluationResult] = []
        if final_analysis:
            start = time.perf_counter()
            final_key = key_of(
                {
                    "stage": "final",
                    "space": space_hash,
                    "accelerator": base.get("accelerator"),
                    "images": base.get("images"),
                    "scenarios": base.get("scenarios"),
                    "configs": [list(c) for c in pseudo.configs],
                }
            )
            real = None
            if store is not None:
                real = store.get("evaluations", final_key)
                if real is not None and len(real) != len(pseudo.configs):
                    real = None
            if real is None:
                real = self.engine().evaluate_many(space, pseudo.configs)
                if store is not None:
                    store.put("evaluations", final_key, real)
                cache = "miss" if store is not None else "off"
            else:
                cache = "hit"
            record_stage(
                "final_analysis",
                time.perf_counter() - start,
                cache,
                [] if store is None else [
                    {"kind": "evaluations", "key": final_key}
                ],
            )

        # ---- assemble result + manifest ----------------------------------
        qor = np.asarray([r.qor for r in real])
        area = np.asarray([r.area for r in real])
        energy = np.asarray([r.energy for r in real])
        front2 = front3 = np.zeros(0, dtype=np.int64)
        if real:
            front2 = pareto_front_indices(np.stack([-qor, area], axis=1))
            front3 = pareto_front_indices(
                np.stack([-qor, area, energy], axis=1)
            )

        engine_stats = idle_engine_stats()
        engine_stats["engine_built"] = self._engine is not None
        engine_stats["model_fits"] = fit_count() - fits_before
        if self._engine is not None:
            engine_stats.update(self._engine.synth_stats())

        run_id = None
        if self.ledger is not None:
            run_id = self.ledger.new_run_id()
            self.ledger.record(
                run_id,
                kind=self.run_kind,
                label=self.run_label,
                params=self.run_params,
                config_hash=run_hash or "",
                stages=stage_records,
                seed=cfg.seed,
                extra={
                    "engine_stats": engine_stats,
                    "metrics": metrics.snapshot(since=metrics_mark),
                },
                result_key=result_key,
            )

        return AutoAxResult(
            space=space,
            profiles=profiles,
            initial_space_size=self.initial_space_size(),
            reduced_space_size=space.size(),
            qor_reports=qor_reports,
            hw_reports=hw_reports,
            qor_model=qor_best,
            hw_model=hw_best,
            pseudo_pareto=pseudo,
            real_evaluations=real,
            final_configs=[pseudo.configs[i] for i in front2],
            final_points=np.stack([qor[front2], area[front2]], axis=1),
            final_configs_3d=[pseudo.configs[i] for i in front3],
            final_points_3d=np.stack(
                [qor[front3], area[front3], energy[front3]], axis=1
            ),
            timings=timings,
            stage_cache=stage_cache,
            run_id=run_id,
            engine_stats=engine_stats,
            artifacts=[
                artifact
                for stage in stage_records
                for artifact in stage["artifacts"]
            ],
        )
