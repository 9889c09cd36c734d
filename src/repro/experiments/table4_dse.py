"""Table 4 — distance of heuristic / random-sampling fronts to the optimal
Pareto front of the (estimated) Sobel design space.

The paper enumerates all 4.92e7 configurations of the reduced space; we
cap each per-operation library (default 8 candidates/op => ~3.3e4
configurations) so the exhaustive reference front remains laptop-scale,
and compare the proposed Algorithm 1 against random sampling at several
evaluation budgets.  The comparison — proposed needs orders of magnitude
fewer evaluations to approach the optimum, RS misses front regions — is
scale-invariant, so the capped space substitutes for the paper's full one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.accelerators.profiler import profile_accelerator
from repro.accelerators.sobel import SobelEdgeDetector
from repro.core.budget import EvaluationBudget
from repro.core.dse import exhaustive_search
from repro.core.pareto import front_distances
from repro.core.preprocessing import reduce_library
from repro.experiments.setup import (
    ExperimentSetup,
    build_engine,
    fit_search_models,
)
from repro.search.strategies import make_strategy


@dataclass
class Table4Row:
    """One (algorithm, budget) entry of Table 4."""

    algorithm: str
    evaluations: int
    pareto_size: int
    to_optimal_avg: float
    to_optimal_max: float
    from_optimal_avg: float
    from_optimal_max: float


@dataclass
class Table4Result:
    optimal_size: int
    optimal_evaluations: int
    rows: List[Table4Row]


def table4_distances(
    setup: ExperimentSetup,
    budgets: Sequence[int] = (10**3, 10**4, 10**5),
    per_op_cap: Optional[int] = None,
    n_train: int = 300,
    n_test: int = 150,
    stagnation_limit: int = 50,
    engines: Sequence[str] = ("Random Forest",),
    enumeration_limit: float = 2e6,
) -> Table4Result:
    """Run proposed vs RS at each budget against the exhaustive front.

    Every algorithm runs through the budget-metered search-strategy
    layer, so each row's ``evaluations`` is the *exact* number of model
    calls issued — the budget-matched comparison of the paper's
    Table 4 holds by construction.

    The reduced space is thinned (``per_op_cap``) only when it exceeds
    ``enumeration_limit`` configurations, so the reference front stays
    computable.
    """
    accelerator = SobelEdgeDetector()
    profiles = profile_accelerator(
        accelerator, setup.images, rng=setup.seed
    )
    space = reduce_library(
        accelerator, setup.library, profiles, per_op_cap=per_op_cap
    )
    while space.size() > enumeration_limit:
        per_op_cap = (
            max(space.slot_sizes()) - 2
            if per_op_cap is None
            else per_op_cap - 2
        )
        if per_op_cap < 4:
            raise ValueError("cannot thin the space below 4 choices/op")
        space = reduce_library(
            accelerator, setup.library, profiles, per_op_cap=per_op_cap
        )
    evaluator = build_engine(accelerator, setup.images)
    qor_model, hw_model = fit_search_models(
        space, evaluator, n_train, n_test, engines=engines,
        seed=setup.seed,
    )

    optimal = exhaustive_search(space, qor_model, hw_model)
    # Joint normalisation bounds over the whole estimated objective space
    # (the paper normalises estimated QoR and HW to [0, 1]).
    low = optimal.points.min(axis=0)
    high = optimal.points.max(axis=0)

    hill = make_strategy(
        f"hill:stagnation_limit={stagnation_limit},batch_size=64"
    )
    sampler = make_strategy("random")
    rows: List[Table4Row] = []
    for budget in budgets:
        results = [
            (
                "Proposed",
                hill.run(
                    space, qor_model, hw_model,
                    budget=EvaluationBudget(budget),
                    rng=setup.seed + budget,
                ),
            ),
            (
                "Random sampling",
                sampler.run(
                    space, qor_model, hw_model,
                    budget=EvaluationBudget(budget),
                    rng=setup.seed + budget,
                ),
            ),
        ]
        for name, result in results:
            stats = front_distances(
                result.points, optimal.points, bounds=(low, high)
            )
            rows.append(
                Table4Row(
                    algorithm=name,
                    evaluations=result.evaluations,
                    pareto_size=len(result),
                    to_optimal_avg=stats["to_optimal_avg"],
                    to_optimal_max=stats["to_optimal_max"],
                    from_optimal_avg=stats["from_optimal_avg"],
                    from_optimal_max=stats["from_optimal_max"],
                )
            )
    return Table4Result(
        optimal_size=len(optimal),
        optimal_evaluations=optimal.evaluations,
        rows=rows,
    )
