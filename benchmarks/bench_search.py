"""Search-layer benchmark — parallel portfolio vs the serial hill climber.

Both contenders get the *same exact* model-evaluation budget per seed
(metered by :class:`~repro.core.budget.EvaluationBudget`, so no
discarded batch tail goes uncounted) and are scored by the dominated
hypervolume of their final fronts under a per-seed joint reference
point.  A single trajectory is high-variance — the portfolio's value is
precisely that it hedges a hill climber that rutted early with
independent islands and migration — so the contest runs over several
seeds and compares *mean* hypervolume.  Asserted contract (also the
PR's acceptance bar): every run's evaluation count equals the requested
budget exactly, and the portfolio's mean front hypervolume at equal
budget beats the serial hill climber's.

Results land in ``results/search_portfolio.txt``; the machine-readable
doc of each run is appended to the ``BENCH_search.json`` trajectory (a
JSON array) in the working tree.

Run ``python benchmarks/bench_search.py --smoke`` (or set
``REPRO_SEARCH_SMOKE=1``) for the tiny CI variant; the library is
store-cached (``REPRO_STORE_DIR``), so a warmed store skips the
characterisation cost entirely.  The portfolio's islands run on the
runtime's worker count (``REPRO_WORKERS``, else every usable core).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_search.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks._common import (
    bench_metrics,
    metrics_mark,
    timed,
    write_result,
)
from repro.accelerators.profiler import profile_accelerator
from repro.core.budget import EvaluationBudget
from repro.core.pareto import hypervolume_2d
from repro.core.preprocessing import reduce_library
from repro.experiments.setup import (
    build_workload_engine,
    fit_search_models,
    workload_setup,
)
from repro.search import HillClimbStrategy, PortfolioRunner

#: Bench trajectory file (machine-readable, one doc per run).
BENCH_JSON = Path("BENCH_search.json")

WORKLOAD = "sobel"
STRATEGIES = ("hill", "random", "nsga2:population_size=24")


def _smoke() -> bool:
    return os.environ.get("REPRO_SEARCH_SMOKE", "0") not in (
        "0", "", "false",
    )


def _minimised(points: np.ndarray) -> np.ndarray:
    return np.stack([-points[:, 0], points[:, 1]], axis=1)


def _build_models(scale: float):
    setup = workload_setup(
        WORKLOAD, scale=scale, n_images=2, image_shape=(48, 64), seed=0,
    )
    profiles = profile_accelerator(
        setup.accelerator, setup.images, rng=0
    )
    space = reduce_library(setup.accelerator, setup.library, profiles)
    engine = build_workload_engine(setup)
    qor_model, hw_model = fit_search_models(
        space, engine, 40, 20, engines=("K-Neighbors",), seed=0,
    )
    return space, qor_model, hw_model


def test_search_portfolio():
    smoke = _smoke()
    budget = 500 if smoke else 800
    seeds = range(3) if smoke else range(8)
    space, qor_model, hw_model = _build_models(
        0.02 if smoke else 0.05
    )
    mark = metrics_mark()

    hv_serial_all, hv_portfolio_all, rows = [], [], []
    serial_s = portfolio_s = 0.0
    for seed in seeds:
        with timed("search.serial") as t:
            serial = HillClimbStrategy().run(
                space, qor_model, hw_model,
                budget=EvaluationBudget(budget), rng=seed,
            )
        serial_s += t.seconds

        with timed("search.portfolio") as t:
            portfolio = PortfolioRunner(
                space, qor_model, hw_model,
                strategies=STRATEGIES, rounds=2, seed=seed,
            ).run(budget)
        portfolio_s += t.seconds

        # Exact budget accounting: both spend precisely the asked
        # budget (the fixed hill climber counts discarded batch tails,
        # the portfolio tops up strategy remainders).
        assert serial.evaluations == budget
        assert portfolio.evaluations == budget

        both = np.vstack(
            [_minimised(serial.points), _minimised(portfolio.points)]
        )
        reference = (
            float(both[:, 0].max()) + 1.0,
            float(both[:, 1].max()) * 1.05 + 1e-9,
        )
        hv_s = hypervolume_2d(_minimised(serial.points), reference)
        hv_p = hypervolume_2d(_minimised(portfolio.points), reference)
        hv_serial_all.append(hv_s)
        hv_portfolio_all.append(hv_p)
        rows.append(
            f"  seed {seed}: serial hv {hv_s:12.2f} "
            f"(front {len(serial):3d})   portfolio hv {hv_p:12.2f} "
            f"(front {len(portfolio):3d})   ratio "
            f"{hv_p / hv_s if hv_s > 0 else float('inf'):6.3f}"
        )

    mean_serial = float(np.mean(hv_serial_all))
    mean_portfolio = float(np.mean(hv_portfolio_all))
    ratio = mean_portfolio / mean_serial if mean_serial > 0 else (
        float("inf")
    )
    rate_serial = mean_serial / (serial_s / len(hv_serial_all))
    rate_portfolio = mean_portfolio / (
        portfolio_s / len(hv_portfolio_all)
    )
    rate_ratio = (
        rate_portfolio / rate_serial if rate_serial > 0
        else float("inf")
    )

    write_result(
        "search_portfolio",
        (
            f"workload {WORKLOAD}, budget {budget} evaluations/seed, "
            f"{len(hv_serial_all)} seeds "
            f"({'smoke' if smoke else 'full'} mode)\n"
            + "\n".join(rows) + "\n"
            f"mean hypervolume: serial {mean_serial:12.2f}   "
            f"portfolio {mean_portfolio:12.2f}\n"
            f"mean-hypervolume ratio at equal budget: {ratio:6.3f}x\n"
            f"hypervolume/second ratio:               "
            f"{rate_ratio:6.3f}x\n"
            f"wall time: serial {serial_s:7.3f}s   "
            f"portfolio {portfolio_s:7.3f}s"
        ),
    )
    doc = {
        "version": 1,
        "bench": "search_portfolio",
        "workload": WORKLOAD,
        "mode": "smoke" if smoke else "full",
        "budget": budget,
        "seeds": len(hv_serial_all),
        "serial_seconds": round(serial_s, 4),
        "portfolio_seconds": round(portfolio_s, 4),
        "serial_hypervolume_mean": mean_serial,
        "portfolio_hypervolume_mean": mean_portfolio,
        "hypervolume_ratio": round(ratio, 4),
        "hv_per_second_ratio": round(rate_ratio, 4),
        "strategies": list(STRATEGIES),
        "metrics": bench_metrics(mark),
    }
    trajectory = []
    if BENCH_JSON.is_file():
        try:
            previous = json.loads(BENCH_JSON.read_text())
            if isinstance(previous, list):
                trajectory = previous
        except (OSError, json.JSONDecodeError):
            trajectory = []
    trajectory.append(doc)
    BENCH_JSON.write_text(
        json.dumps(trajectory, sort_keys=True, indent=2) + "\n"
    )

    # Acceptance bar: the portfolio must beat the serial hill climber
    # on mean front hypervolume at the same exact budget.
    assert mean_portfolio > mean_serial


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny-budget variant for CI",
    )
    cli_args = parser.parse_args()
    if cli_args.smoke:
        os.environ["REPRO_SEARCH_SMOKE"] = "1"
    test_search_portfolio()
    print("bench_search: OK")
