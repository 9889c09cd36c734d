"""NSGA-II over configuration space — an alternative model-based explorer.

The paper uses a Pareto-archive hill climber (Algorithm 1) because the
number of candidate solutions is enormous; a population-based
multi-objective GA is the obvious alternative and is provided here as an
extension.  Objectives are the same model estimates (QoR maximised, HW
cost minimised); genomes are configurations; crossover is uniform
per-slot gene exchange and mutation re-draws single genes.

Reference: Deb et al., "A fast and elitist multiobjective genetic
algorithm: NSGA-II", IEEE TEC 2002.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.budget import EvaluationBudget, MeteredEstimator
from repro.core.configuration import ConfigurationSpace
from repro.core.dse import DSEResult
from repro.core.modeling import EstimationModel
from repro.core.pareto import pareto_front_indices
from repro.errors import DSEError
from repro.utils.rng import RngLike, ensure_rng


def fast_non_dominated_sort(points: np.ndarray) -> List[np.ndarray]:
    """Partition ``points`` (minimisation) into non-domination fronts.

    Fully vectorised: one broadcasted pass builds the pairwise
    domination matrix, then each front is peeled off with matrix
    reductions instead of the classic per-point Python loops.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n == 0:
        return []
    le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    lt = np.any(points[:, None, :] < points[None, :, :], axis=2)
    beats = le & lt  # beats[i, j]: point i dominates point j
    domination_count = beats.sum(axis=0)
    fronts: List[np.ndarray] = []
    while True:
        current = np.nonzero(domination_count == 0)[0]
        if current.size == 0:
            break
        fronts.append(current)
        domination_count = domination_count - beats[current].sum(axis=0)
        domination_count[current] = -1  # assigned; never zero again
    return fronts


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """Crowding distance of each point within one front."""
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(points[:, k])
        span = points[order[-1], k] - points[order[0], k]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span <= 0:
            continue
        gaps = (points[order[2:], k] - points[order[:-2], k]) / span
        distance[order[1:-1]] += gaps
    return distance


def _tournament(rank, crowd, rng, count):
    """Binary tournament selection indices (lower rank, higher crowding).

    Exact ties — equal rank *and* equal crowding, the common case when
    both contestants carry infinite boundary crowding — are broken by a
    fair coin: always awarding them to one side skews selection
    pressure toward arbitrary population positions.
    """
    n = rank.shape[0]
    a = rng.integers(0, n, size=count)
    b = rng.integers(0, n, size=count)
    better_rank = rank[a] < rank[b]
    tie = rank[a] == rank[b]
    better_crowd = crowd[a] > crowd[b]
    full_tie = tie & (crowd[a] == crowd[b])
    coin = rng.random(size=count) < 0.5
    pick_a = better_rank | (tie & better_crowd) | (full_tie & coin)
    return np.where(pick_a, a, b)


def make_offspring(
    space: ConfigurationSpace,
    population: np.ndarray,
    rank: np.ndarray,
    crowd: np.ndarray,
    rng: RngLike,
    crossover_prob: float = 0.9,
    mutation_prob: float = 0.2,
) -> np.ndarray:
    """One generation of NSGA-II offspring from a ranked population.

    Binary tournament selection (lower rank, higher crowding, fair
    coin on full ties), uniform per-slot crossover on consecutive
    pairs, then per-gene mutation that redraws genes uniformly from
    the slot's candidate list.  This is the exact variation operator
    of :func:`nsga2_search` — split out so benchmarks and other
    explorers can build realistic generation batches; for a given RNG
    state it consumes the same draws in the same order as the
    in-loop code it replaced, so trajectories are unchanged.
    """
    gen = ensure_rng(rng)
    population = np.asarray(population, dtype=np.int64)
    population_size = population.shape[0]
    if population_size < 2 or population_size % 2:
        raise DSEError("offspring need an even population of >= 2")
    sizes = np.asarray(space.slot_sizes())
    n_slots = space.n_slots
    if population.shape[1] != n_slots:
        raise DSEError(
            f"genome width {population.shape[1]} != {n_slots} slots"
        )
    parents = _tournament(
        np.asarray(rank), np.asarray(crowd), gen, population_size
    )
    children = population[parents].copy()
    # uniform crossover on consecutive pairs
    for i in range(0, population_size, 2):
        if gen.random() < crossover_prob:
            swap = gen.random(n_slots) < 0.5
            tmp = children[i, swap].copy()
            children[i, swap] = children[i + 1, swap]
            children[i + 1, swap] = tmp
    # per-gene mutation: redraw uniformly
    mutate = gen.random(children.shape) < (mutation_prob / n_slots)
    redraw = (gen.random(children.shape) * sizes).astype(np.int64)
    return np.where(mutate, redraw, children)


def nsga2_search(
    space: ConfigurationSpace,
    qor_model: EstimationModel,
    hw_model: EstimationModel,
    population_size: int = 100,
    generations: int = 50,
    crossover_prob: float = 0.9,
    mutation_prob: float = 0.2,
    rng: RngLike = 0,
    budget: Optional[EvaluationBudget] = None,
) -> DSEResult:
    """NSGA-II exploration returning the final population's Pareto front.

    Total model evaluations: ``population_size * (generations + 1)``,
    or fewer under an explicit ``budget`` — the search stops before any
    generation the budget cannot fully fund, and every model call is
    metered so ``DSEResult.evaluations`` is exact.
    """
    if population_size < 4 or population_size % 2:
        raise DSEError("population_size must be an even number >= 4")
    if generations < 1:
        raise DSEError("generations must be >= 1")
    if budget is None:
        budget = EvaluationBudget(population_size * (generations + 1))
    gen = ensure_rng(rng)

    population = np.stack(
        [space.random_configuration(gen) for _ in range(population_size)]
    ).astype(np.int64)

    if budget.grant(population_size) < population_size:
        raise DSEError(
            "evaluation budget cannot fund one NSGA-II population"
        )
    estimator = MeteredEstimator(qor_model, hw_model, budget)

    def estimate(genomes: np.ndarray) -> np.ndarray:
        est = estimator.estimate(genomes)
        return np.stack([-est[:, 0], est[:, 1]], axis=1)  # minimised

    objectives = estimate(population)
    population, objectives = _evolve(
        space, population, objectives, estimate, gen,
        population_size, generations, crossover_prob,
        mutation_prob, budget,
    )

    front_idx = pareto_front_indices(objectives)
    unique: dict = {}
    for i in front_idx:
        unique[tuple(int(g) for g in population[i])] = i
    configs = list(unique.keys())
    idx = np.asarray(list(unique.values()), dtype=np.int64)
    points = np.stack(
        [-objectives[idx, 0], objectives[idx, 1]], axis=1
    )
    return DSEResult(
        configs=configs,
        points=points,
        evaluations=estimator.count,
        inserts=len(configs),
        restarts=0,
    )


def _evolve(
    space,
    population,
    objectives,
    estimate,
    gen,
    population_size,
    generations,
    crossover_prob,
    mutation_prob,
    budget,
):
    """The NSGA-II generation loop (split out for readability)."""
    for _ in range(generations):
        if budget.grant(population_size) < population_size:
            break
        fronts = fast_non_dominated_sort(objectives)
        rank = np.empty(population_size, dtype=np.int64)
        crowd = np.empty(population_size)
        for level, front in enumerate(fronts):
            rank[front] = level
            crowd[front] = crowding_distance(objectives[front])

        children = make_offspring(
            space, population, rank, crowd, gen,
            crossover_prob, mutation_prob,
        )
        child_obj = estimate(children)

        merged = np.vstack([population, children])
        merged_obj = np.vstack([objectives, child_obj])
        fronts = fast_non_dominated_sort(merged_obj)
        chosen: List[int] = []
        for front in fronts:
            if len(chosen) + front.size <= population_size:
                chosen.extend(front.tolist())
            else:
                crowd = crowding_distance(merged_obj[front])
                order = front[np.argsort(-crowd)]
                chosen.extend(
                    order[: population_size - len(chosen)].tolist()
                )
                break
        population = merged[chosen]
        objectives = merged_obj[chosen]
    return population, objectives
