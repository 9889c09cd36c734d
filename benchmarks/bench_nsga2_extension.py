"""Extension bench: NSGA-II vs Algorithm 1 at equal evaluation budgets.

Not a paper artefact — the paper's Algorithm 1 is a hill climber; NSGA-II
is the natural population-based alternative.  Both explore the same
reduced Sobel space with the same models; fronts are compared against
the exhaustive optimum, like Table 4.
"""

import numpy as np

from benchmarks._common import shared_setup, sized, write_result
from repro.accelerators import SobelEdgeDetector, profile_accelerator
from repro.core import (
    EvaluationEngine,
    exhaustive_search,
    heuristic_pareto_construction,
    reduce_library,
)
from repro.core.modeling import (
    build_training_set,
    fit_engines,
    select_best_model,
)
from repro.core.nsga2 import nsga2_search
from repro.core.pareto import front_distances
from repro.utils.tabulate import format_table


def _run():
    setup = shared_setup()
    accelerator = SobelEdgeDetector()
    profiles = profile_accelerator(
        accelerator, setup.images, rng=setup.seed
    )
    space = reduce_library(accelerator, setup.library, profiles)
    evaluator = EvaluationEngine(accelerator, setup.images)
    train = build_training_set(
        space, evaluator, sized(250, 1500), rng=setup.seed
    )
    test = build_training_set(
        space, evaluator, sized(120, 1500), rng=setup.seed + 1
    )
    qor = select_best_model(
        fit_engines(space, train, test, target="qor",
                    engines=["Random Forest"], seed=setup.seed)
    ).model
    hw = select_best_model(
        fit_engines(space, train, test, target="area",
                    engines=["Random Forest"], seed=setup.seed)
    ).model
    optimal = exhaustive_search(space, qor, hw)
    low = optimal.points.min(axis=0)
    high = optimal.points.max(axis=0)

    budget = sized(10_000, 100_000)
    alg1 = heuristic_pareto_construction(
        space, qor, hw, max_evaluations=budget, rng=setup.seed
    )
    pop = 100
    nsga = nsga2_search(
        space, qor, hw, population_size=pop,
        generations=budget // pop - 1, rng=setup.seed,
    )
    rows = []
    for name, result in (("Algorithm 1", alg1), ("NSGA-II", nsga)):
        stats = front_distances(
            result.points, optimal.points, bounds=(low, high)
        )
        rows.append(
            [name, result.evaluations, len(result),
             f"{stats['to_optimal_avg']:.5f}",
             f"{stats['from_optimal_avg']:.5f}",
             f"{stats['from_optimal_max']:.5f}"]
        )
    return rows


def test_nsga2_extension(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result(
        "nsga2_extension",
        format_table(
            ["explorer", "#eval", "#Pareto", "to avg", "from avg",
             "from max"],
            rows,
            title="Extension: NSGA-II vs Algorithm 1 "
                  "(same models, same budget)",
        ),
    )
    # both explorers must land close to the optimal front
    for row in rows:
        assert float(row[4]) < 0.1
