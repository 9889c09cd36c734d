"""Parallel portfolio exploration with exact budget accounting.

A *portfolio* runs N strategy islands (hill climber, NSGA-II, random
sampling, capped exhaustive — any mix) over the same configuration
space and estimation models.  The global evaluation budget is split
into per-island slices each round, every island spends its slice under
its own :class:`~repro.core.budget.EvaluationBudget` (so no model call
anywhere goes uncounted), and after each round the island fronts are
merged through one vectorised
:meth:`~repro.core.pareto.ParetoArchive.insert_many` pass.  The merged
front migrates back into the islands for the next round — the hill
climbers restart from it, NSGA-II injects it into its population.

Islands are independent, so a round executes them across worker
processes (``workers``, defaulting to the ``REPRO_WORKERS``
convention); each island owns a spawned RNG whose state is carried
between rounds, which makes the result **bit-identical for any
``workers`` setting** and lets a checkpoint freeze the whole search.

Checkpoints: with a ``store``, every completed round writes a ``search``
artifact (merged front, per-island RNG + strategy state, spend) and a
run-ledger manifest, so ``repro runs resume <run-id>`` continues an
interrupted search exactly where it stopped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.budget import EvaluationBudget
from repro.core.configuration import Configuration, ConfigurationSpace
from repro.core.dse import DSEResult
from repro.core.runtime import default_workers, validate_workers
from repro.core.modeling import EstimationModel
from repro.core.pareto import ParetoArchive
from repro.errors import DSEError, StoreError
from repro.search.strategies import SearchStrategy, make_strategy
from repro.telemetry import get_metrics, maybe_span
from repro.utils.rng import spawn_rngs

#: Artifact kind of portfolio checkpoints in the experiment store.
CHECKPOINT_KIND = "search"

#: Checkpoint format version (bump on incompatible schema changes).
CHECKPOINT_VERSION = 1


@dataclass
class IslandReport:
    """Per-(round, island) accounting."""

    round: int
    island: int
    strategy: str
    evaluations: int
    inserts: int
    restarts: int
    front_size: int
    seconds: float


@dataclass
class PortfolioResult:
    """Merged outcome of a portfolio run.

    ``points`` rows are ``(estimated QoR, estimated cost)`` in natural
    orientation (QoR higher-is-better), like
    :class:`~repro.core.dse.DSEResult`.  ``evaluations`` is the exact
    total number of configurations the islands sent to the models.
    """

    configs: List[Configuration]
    points: np.ndarray
    evaluations: int
    max_evaluations: int
    rounds: int
    islands: List[IslandReport] = field(default_factory=list)
    run_id: Optional[str] = None
    resumed_from: Optional[str] = None

    def __len__(self) -> int:
        return len(self.configs)

    def as_dse_result(self) -> DSEResult:
        """View the merged front as a plain :class:`DSEResult`."""
        return DSEResult(
            configs=list(self.configs),
            points=self.points.copy(),
            evaluations=self.evaluations,
            inserts=sum(r.inserts for r in self.islands),
            restarts=sum(r.restarts for r in self.islands),
        )


def analyze_front(
    result: "PortfolioResult",
    space: ConfigurationSpace,
    engine,
    workers: Optional[int] = None,
) -> List[Dict]:
    """Exact analysis of a merged front in one batched engine pass.

    Search fronts carry *model-estimated* objectives; before acting on
    one (writing a report, picking a deployment point) the front should
    be re-measured with the real evaluation path.  This helper funnels
    every front configuration through a single
    :meth:`~repro.core.engine.EvaluationEngine.evaluate_many` call — so
    the whole front rides one configuration-axis batched pass instead
    of a per-config loop — and returns, per configuration, the model
    estimates next to the measured values:

    ``[{"config", "estimated_qor", "estimated_cost", "qor", "area",
    "delay", "power"}, ...]`` in front order.
    """
    if len(result.configs) != result.points.shape[0]:
        raise DSEError("front configs and points are out of sync")
    measured = engine.evaluate_many(
        space, result.configs, workers=workers
    )
    return [
        {
            "config": tuple(int(g) for g in config),
            "estimated_qor": float(result.points[i, 0]),
            "estimated_cost": float(result.points[i, 1]),
            "qor": real.qor,
            "area": real.area,
            "delay": real.delay,
            "power": real.power,
        }
        for i, (config, real) in enumerate(
            zip(result.configs, measured)
        )
    ]


def _split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integers differing by at most 1."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _run_island(context, task):
    """Run one island for one round (a shared-runtime task).

    All RNG state travels inside ``task`` (restored explicitly below),
    so execution is bit-identical in-process, forked, or spawned.
    """
    space, qor_model, hw_model, strategies = context
    idx, rng_state, front_points, front_configs, state, slice_n = task
    strategy = strategies[idx]
    gen = np.random.default_rng(0)
    gen.bit_generator.state = rng_state
    archive = ParetoArchive(n_objectives=2)
    if len(front_configs):
        minimised = np.stack(
            [-front_points[:, 0], front_points[:, 1]], axis=1
        )
        archive.insert_many(minimised, front_configs)
    budget = EvaluationBudget(slice_n)
    start = time.perf_counter()
    result = strategy.run(
        space,
        qor_model,
        hw_model,
        budget=budget,
        rng=gen,
        archive=archive,
        seeds=front_configs,
        state=state,
    )
    seconds = time.perf_counter() - start
    return idx, result, gen.bit_generator.state, state, seconds


class PortfolioRunner:
    """Run a portfolio of search islands; see the module docstring.

    ``strategies`` accepts :class:`SearchStrategy` objects or spec
    strings (``"hill"``, ``"nsga2:population_size=24"``, ...); one
    island per entry.  ``workers`` bounds the process count per round
    (``None`` falls back to ``REPRO_WORKERS``, then every usable
    core); results do not depend on it.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        qor_model: EstimationModel,
        hw_model: EstimationModel,
        strategies: Sequence[Union[str, SearchStrategy]] = (
            "hill", "nsga2", "random",
        ),
        rounds: int = 2,
        seed: int = 0,
        workers: Optional[int] = None,
        store=None,
        label: str = "portfolio",
        run_params: Optional[Dict] = None,
    ):
        if not strategies:
            raise DSEError("a portfolio needs at least one strategy")
        if rounds < 1:
            raise DSEError("rounds must be >= 1")
        self.space = space
        self.qor_model = qor_model
        self.hw_model = hw_model
        self.strategies: List[SearchStrategy] = [
            s if isinstance(s, SearchStrategy) else make_strategy(s)
            for s in strategies
        ]
        self.rounds = rounds
        self.seed = seed
        if workers is None:
            self.workers = default_workers()
        else:
            self.workers = validate_workers(workers)
        self.store = store
        self.label = label
        self.run_params = dict(run_params or {})

    # -- checkpoint plumbing -------------------------------------------------

    @staticmethod
    def load_checkpoint(store, run_id: str) -> Dict:
        """The latest checkpoint payload of a recorded search run."""
        from repro.store import RunLedger

        manifest = RunLedger(store).get(run_id)
        if manifest.get("kind") != "search":
            raise StoreError(
                f"run {run_id!r} is a {manifest.get('kind')!r} run, "
                "not a search"
            )
        ref = (manifest.get("extra") or {}).get("checkpoint")
        if not ref:
            raise StoreError(f"run {run_id!r} has no search checkpoint")
        payload = store.get(ref["kind"], ref["key"])
        if payload is None:
            raise StoreError(
                f"checkpoint artifact of run {run_id!r} is gone "
                "(garbage-collected?)"
            )
        return payload

    def _checkpoint_payload(
        self,
        round_done: int,
        max_evaluations: int,
        spent: int,
        merged: ParetoArchive,
        rng_states: List[Dict],
        states: List[Dict],
    ) -> Dict:
        points = merged.points
        points[:, 0] = -points[:, 0]  # back to natural orientation
        return {
            "version": CHECKPOINT_VERSION,
            "label": self.label,
            "seed": self.seed,
            "round": round_done,
            "rounds": self.rounds,
            "max_evaluations": max_evaluations,
            "spent": spent,
            "strategies": [s.spec for s in self.strategies],
            "front": {
                "configs": [list(c) for c in merged.payloads],
                "points": points.tolist(),
            },
            "islands": [
                {"rng_state": rng_states[i], "state": states[i]}
                for i in range(len(self.strategies))
            ],
        }

    def _record(
        self,
        run_id: str,
        payload: Dict,
        stages: List[Dict],
        status: str,
        resumed_from: Optional[str],
        metrics_mark: Optional[Dict] = None,
    ) -> None:
        from repro.store import RunLedger, content_hash

        key = content_hash({"run": run_id, "label": self.label})
        ref = self.store.put(CHECKPOINT_KIND, key, payload)
        extra = {
            "checkpoint": {"kind": ref.kind, "key": ref.key},
            "front_size": len(payload["front"]["configs"]),
            "evaluations": payload["spent"],
            "max_evaluations": payload["max_evaluations"],
            "round": payload["round"],
            "rounds": payload["rounds"],
            "metrics": get_metrics().snapshot(since=metrics_mark),
        }
        if resumed_from:
            extra["resumed_from"] = resumed_from
        RunLedger(self.store).record(
            run_id,
            kind="search",
            label=self.label,
            params=self.run_params,
            config_hash=content_hash(
                {
                    "strategies": payload["strategies"],
                    "seed": self.seed,
                    "rounds": self.rounds,
                    "max_evaluations": payload["max_evaluations"],
                }
            ),
            stages=stages,
            seed=self.seed,
            status=status,
            extra=extra,
        )

    # -- execution -----------------------------------------------------------

    def run(
        self,
        max_evaluations: int,
        resume_from: Optional[str] = None,
    ) -> PortfolioResult:
        """Spend ``max_evaluations`` model calls across the islands.

        ``resume_from`` names a checkpointed search run in the store;
        the portfolio restores its merged front, per-island RNG and
        strategy state, and continues with the *remaining* rounds and
        budget recorded there (``max_evaluations`` is then taken from
        the checkpoint, not the argument).
        """
        if max_evaluations < 1:
            raise DSEError("max_evaluations must be >= 1")
        n_islands = len(self.strategies)
        merged = ParetoArchive(n_objectives=2)
        states: List[Dict] = [{} for _ in range(n_islands)]
        # One extra generator drives the final-round top-up sampler.
        *generators, topup_gen = spawn_rngs(self.seed, n_islands + 1)
        spent = 0
        start_round = 0
        reports: List[IslandReport] = []

        if resume_from is not None:
            if self.store is None:
                raise StoreError("resume requires an experiment store")
            payload = self.load_checkpoint(self.store, resume_from)
            specs = [s.spec for s in self.strategies]
            if payload["strategies"] != specs:
                raise StoreError(
                    "checkpoint strategies "
                    f"{payload['strategies']} do not match this "
                    f"portfolio ({specs})"
                )
            max_evaluations = int(payload["max_evaluations"])
            spent = int(payload["spent"])
            start_round = int(payload["round"])
            self.rounds = int(payload["rounds"])
            front = payload["front"]
            configs = [tuple(int(g) for g in c)
                       for c in front["configs"]]
            if configs:
                points = np.asarray(front["points"], dtype=float)
                minimised = np.stack(
                    [-points[:, 0], points[:, 1]], axis=1
                )
                merged.insert_many(minimised, configs)
            for i, island in enumerate(payload["islands"]):
                generators[i].bit_generator.state = island["rng_state"]
                states[i] = island["state"]

        run_id = None
        if self.store is not None:
            from repro.store import RunLedger

            run_id = RunLedger.new_run_id()

        metrics = get_metrics()
        metrics_mark = metrics.mark()
        stages: List[Dict] = []
        for round_i in range(start_round, self.rounds):
            remaining = max_evaluations - spent
            if remaining <= 0:
                break
            rounds_left = self.rounds - round_i
            round_total = (
                remaining // rounds_left if rounds_left > 1 else remaining
            ) or remaining
            slices = _split_evenly(round_total, n_islands)
            front_points = merged.points
            front_points[:, 0] = -front_points[:, 0]  # natural
            front_configs = list(merged.payloads)
            tasks = [
                (
                    i,
                    generators[i].bit_generator.state,
                    front_points,
                    front_configs,
                    states[i],
                    slices[i],
                )
                for i in range(n_islands)
                if slices[i] > 0
            ]
            metrics.inc("search.rounds")
            if round_i > start_round and front_configs:
                # The previous round's merged front migrated back into
                # every island that runs this round.
                metrics.inc(
                    "search.migrations",
                    len(front_configs) * len(tasks),
                )
            round_start = time.perf_counter()
            with maybe_span(
                "search.round", cat="search",
                args={"round": round_i, "islands": len(tasks)},
            ):
                outcomes = self._execute(tasks)
            for idx, result, rng_state, state, seconds in outcomes:
                generators[idx].bit_generator.state = rng_state
                states[idx] = state
                spent += result.evaluations
                if len(result.configs):
                    minimised = np.stack(
                        [-result.points[:, 0], result.points[:, 1]],
                        axis=1,
                    )
                    merged.insert_many(minimised, result.configs)
                reports.append(
                    IslandReport(
                        round=round_i,
                        island=idx,
                        strategy=self.strategies[idx].name,
                        evaluations=result.evaluations,
                        inserts=result.inserts,
                        restarts=result.restarts,
                        front_size=len(result.configs),
                        seconds=seconds,
                    )
                )
            if round_i + 1 >= self.rounds and spent < max_evaluations:
                # Strategies with quantised spends (NSGA-II generations)
                # can leave a remainder; budget-matched comparisons need
                # the portfolio to spend *exactly* the requested budget,
                # so the crumbs go to one random-sampling top-up.
                from repro.search.strategies import RandomStrategy

                start = time.perf_counter()
                result = RandomStrategy().run(
                    self.space, self.qor_model, self.hw_model,
                    budget=EvaluationBudget(max_evaluations - spent),
                    rng=topup_gen,
                )
                spent += result.evaluations
                minimised = np.stack(
                    [-result.points[:, 0], result.points[:, 1]], axis=1
                )
                merged.insert_many(minimised, result.configs)
                reports.append(
                    IslandReport(
                        round=round_i,
                        island=n_islands,
                        strategy="random-topup",
                        evaluations=result.evaluations,
                        inserts=result.inserts,
                        restarts=0,
                        front_size=len(result.configs),
                        seconds=time.perf_counter() - start,
                    )
                )
            round_seconds = time.perf_counter() - round_start
            if self.store is not None:
                payload = self._checkpoint_payload(
                    round_i + 1, max_evaluations, spent, merged.copy(),
                    [g.bit_generator.state for g in generators],
                    states,
                )
                stages.append(
                    {
                        "name": f"round_{round_i}",
                        "seconds": round(round_seconds, 6),
                        "cache": "miss",
                        "evaluations": spent,
                    }
                )
                status = (
                    "complete" if round_i + 1 >= self.rounds
                    else "partial"
                )
                self._record(
                    run_id, payload, stages, status, resume_from,
                    metrics_mark=metrics_mark,
                )
            metrics.set_gauge(
                "search.front_size", len(merged.payloads)
            )

        if run_id is not None and not stages:
            # Nothing ran (checkpoint already complete): the restored
            # run stays the authoritative manifest.
            run_id = resume_from
        points = merged.points
        points[:, 0] = -points[:, 0]
        return PortfolioResult(
            configs=list(merged.payloads),
            points=points,
            evaluations=spent,
            max_evaluations=max_evaluations,
            rounds=self.rounds,
            islands=reports,
            run_id=run_id,
            resumed_from=resume_from,
        )

    def _execute(self, tasks) -> List:
        """Run the round's island tasks on the runtime pool."""
        from repro.core.runtime import get_runtime

        context = (
            self.space, self.qor_model, self.hw_model, self.strategies,
        )
        return get_runtime().map(
            _run_island,
            tasks,
            context=context,
            workers=min(self.workers or 1, len(tasks)),
            label="portfolio-islands",
        )
