"""Step 3 — model-based design-space exploration.

:func:`heuristic_pareto_construction` implements the paper's Algorithm 1:
stochastic hill climbing whose acceptance test is insertion into a Pareto
archive of (estimated QoR, estimated HW cost), with random restarts from
the archive after ``stagnation_limit`` rejected moves.  The baselines the
paper compares against are here too: random sampling, the deterministic
uniform-selection heuristic, and exhaustive enumeration (for the optimal
reference front of Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.budget import EvaluationBudget, MeteredEstimator
from repro.core.configuration import Configuration, ConfigurationSpace
from repro.core.modeling import EstimationModel
from repro.core.pareto import ParetoArchive, pareto_front_indices
from repro.errors import DSEError
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class DSEResult:
    """Outcome of one Pareto-construction run.

    ``points`` holds the (estimated QoR, estimated cost) pairs of the
    archive members — QoR in its natural orientation (higher is better).
    """

    configs: List[Configuration]
    points: np.ndarray
    evaluations: int
    inserts: int
    restarts: int

    def __len__(self) -> int:
        return len(self.configs)


def heuristic_pareto_construction(
    space: ConfigurationSpace,
    qor_model: EstimationModel,
    hw_model: EstimationModel,
    max_evaluations: int = 10_000,
    stagnation_limit: int = 50,
    rng: RngLike = 0,
    batch_size: int = 64,
    budget: Optional[EvaluationBudget] = None,
) -> DSEResult:
    """Algorithm 1: hill climbing with a Pareto archive and restarts.

    Candidate neighbours are estimated in small batches so the tree
    ensembles amortise their per-call overhead; the batch is consumed
    sequentially, preserving the algorithm's move semantics (each
    accepted move changes the parent, and remaining candidates of the
    batch are discarded).  Every estimated candidate — including a
    discarded batch tail — costs one model evaluation and is charged
    against the budget, so ``DSEResult.evaluations`` equals the exact
    number of configurations sent to the models and never exceeds
    ``max_evaluations``.

    ``budget`` overrides ``max_evaluations`` with a caller-owned
    :class:`~repro.core.budget.EvaluationBudget`; it must be finite,
    because the climb only stops when the budget runs out.
    """
    if budget is None:
        if max_evaluations < 1:
            raise DSEError("max_evaluations must be >= 1")
        budget = EvaluationBudget(max_evaluations)
    elif budget.total is None:
        raise DSEError("hill climbing needs a finite evaluation budget")
    if stagnation_limit < 1:
        raise DSEError("stagnation_limit must be >= 1")
    gen = ensure_rng(rng)
    archive = ParetoArchive(n_objectives=2)
    estimator = MeteredEstimator(qor_model, hw_model, budget)

    if budget.grant(1) == 0:
        raise DSEError(
            "evaluation budget exhausted before the initial sample"
        )
    parent = space.random_configuration(gen)
    est = estimator.estimate([parent])[0]
    archive.insert((-est[0], est[1]), parent)
    inserts = 1
    restarts = 0
    stagnation = 0

    while True:
        # Adaptive batch ramp: a batch is discarded from the point of
        # an accepted move or restart, and discarded candidates now
        # cost real budget — so stay small while moves are being
        # accepted (tails are then short) and grow towards
        # ``batch_size`` during stagnant stretches, where the whole
        # batch gets consumed and the per-call overhead amortised.
        batch_n = budget.grant(min(batch_size, stagnation + 4))
        if batch_n == 0:
            break
        candidates = space.neighbors(parent, batch_n, gen)
        estimates = estimator.estimate(candidates)
        for candidate, (eqor, ehw) in zip(candidates, estimates):
            if archive.insert((-eqor, ehw), candidate):
                parent = candidate
                inserts += 1
                stagnation = 0
                break
            stagnation += 1
            if stagnation >= stagnation_limit:
                members = archive.payloads
                parent = members[int(gen.integers(0, len(members)))]
                restarts += 1
                stagnation = 0
                break

    points = archive.points
    points[:, 0] = -points[:, 0]
    return DSEResult(
        configs=list(archive.payloads),
        points=points,
        evaluations=estimator.count,
        inserts=inserts,
        restarts=restarts,
    )


def random_sampling(
    space: ConfigurationSpace,
    qor_model: EstimationModel,
    hw_model: EstimationModel,
    max_evaluations: int = 10_000,
    rng: RngLike = 0,
    budget: Optional[EvaluationBudget] = None,
) -> DSEResult:
    """RS baseline: estimate random configurations, keep the front."""
    if budget is None:
        if max_evaluations < 1:
            raise DSEError("max_evaluations must be >= 1")
        budget = EvaluationBudget(max_evaluations)
    gen = ensure_rng(rng)
    estimator = MeteredEstimator(qor_model, hw_model, budget)
    count = budget.grant(max_evaluations)
    if count == 0:
        raise DSEError(
            "evaluation budget exhausted before the initial sample"
        )
    configs = [space.random_configuration(gen) for _ in range(count)]
    estimates = estimator.estimate(configs)
    minimised = np.stack([-estimates[:, 0], estimates[:, 1]], axis=1)
    front = pareto_front_indices(minimised)
    return DSEResult(
        configs=[configs[i] for i in front],
        points=estimates[front],
        evaluations=estimator.count,
        inserts=len(front),
        restarts=0,
    )


def uniform_selection(
    space: ConfigurationSpace, n_points: int = 20
) -> List[Configuration]:
    """The manual baseline of Fig. 5: equal relative error everywhere.

    For each target error level, every operation picks the candidate whose
    WMED relative to the operation's output range is closest to the
    level.  Deterministic; duplicate configurations are collapsed.
    """
    if n_points < 1:
        raise DSEError("n_points must be >= 1")
    relative: List[np.ndarray] = []
    for slot, wmeds in zip(space.slots, space.wmeds):
        kind, width = slot.signature
        out_range = float(1 << (2 * width if kind == "mul" else width + 1))
        relative.append(wmeds / out_range)
    max_rel = max(float(r.max()) for r in relative)
    levels = np.linspace(0.0, max_rel, n_points)
    configs: List[Configuration] = []
    seen = set()
    for level in levels:
        genes = tuple(
            int(np.argmin(np.abs(rel - level))) for rel in relative
        )
        if genes not in seen:
            seen.add(genes)
            configs.append(genes)
    return configs


def exhaustive_search(
    space: ConfigurationSpace,
    qor_model: EstimationModel,
    hw_model: EstimationModel,
    batch_size: int = 200_000,
    budget: Optional[EvaluationBudget] = None,
) -> DSEResult:
    """Estimate *every* configuration; exact front of the estimated space.

    Only feasible for reduced/capped spaces — this is the "optimal
    Pareto" reference of Table 4.  With a ``budget`` the enumeration is
    *capped*: it scans configurations in enumeration order and stops
    when the budget runs out.
    """
    all_configs = space.enumerate_all()
    n = all_configs.shape[0]
    if budget is None:
        budget = EvaluationBudget(n)
    estimator = MeteredEstimator(qor_model, hw_model, budget)
    keep_configs: List[np.ndarray] = []
    keep_points: List[np.ndarray] = []
    start = 0
    while start < n:
        block_n = budget.grant(min(batch_size, n - start))
        if block_n == 0:
            break
        block = all_configs[start : start + block_n]
        start += block_n
        est = estimator.estimate(block)
        minimised = np.stack([-est[:, 0], est[:, 1]], axis=1)
        front = pareto_front_indices(minimised)
        keep_configs.append(block[front])
        keep_points.append(est[front])
    if not keep_configs:
        raise DSEError(
            "evaluation budget exhausted before the first block"
        )
    merged_configs = np.vstack(keep_configs)
    merged_points = np.vstack(keep_points)
    minimised = np.stack(
        [-merged_points[:, 0], merged_points[:, 1]], axis=1
    )
    front = pareto_front_indices(minimised)
    return DSEResult(
        configs=[tuple(int(g) for g in merged_configs[i]) for i in front],
        points=merged_points[front],
        evaluations=estimator.count,
        inserts=len(front),
        restarts=0,
    )
