"""Shared-runtime benchmark — fork tax, speedups, byte identity.

Times the three call sites rewired onto the shared
:class:`~repro.core.runtime.ParallelRuntime` — engine
``evaluate_many`` chunks, the library-build pipeline and portfolio
islands — at several worker counts, records each speedup, and asserts
the runtime's two contracts:

* **byte identity** — every call site produces byte-identical output at
  every measured worker count;
* **the tentpole win** — on machines with >= 4 usable cores, 4 workers
  deliver >= 1.5x on ``evaluate_many`` or the library build.

When no batch fanned out (one usable core) the executed path *is* the
``workers=1`` path, so the recorded speedup is clamped to 1.0; the raw
timing ratio is recorded alongside.

Results land in ``results/runtime.txt``; the machine-readable doc of
each run is appended to the ``BENCH_runtime.json`` trajectory (a JSON
array) in the working tree.

Run ``python benchmarks/bench_runtime.py --smoke`` (or set
``REPRO_RUNTIME_SMOKE=1``) for the tiny CI variant (workers 1 and 2).
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_runtime.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import (
    bench_metrics,
    metrics_mark,
    timed,
    write_result,
)
from repro.telemetry import get_metrics
from repro.accelerators.profiler import profile_accelerator
from repro.core.preprocessing import reduce_library
from repro.core.runtime import reset_runtime
from repro.experiments.setup import (
    build_workload_engine,
    fit_search_models,
    workload_setup,
)
from repro.library.generation import GenerationPlan
from repro.library.io import library_payload
from repro.library.pipeline import build_library
from repro.search import PortfolioRunner

#: Bench trajectory file (machine-readable, one doc per run).
BENCH_JSON = Path("BENCH_runtime.json")

WORKLOAD = "sobel"

#: Tentpole bar: speedup at TENTPOLE_WORKERS on evaluate_many or the
#: library build, enforced on machines with that many usable cores.
TENTPOLE_WORKERS = 4
MIN_TENTPOLE_SPEEDUP = 1.5


def _smoke() -> bool:
    return os.environ.get("REPRO_RUNTIME_SMOKE", "0") not in (
        "0", "", "false",
    )


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _run_site(name, run, fingerprint, worker_counts, repeats):
    """Time ``run(workers)`` per worker count; assert byte identity.

    Every measurement starts from a fresh runtime so pool startup and
    context publishing are *inside* the measured window (they are the
    overhead a fan-out pays).  Returns the per-worker seconds (best of
    ``repeats``), speedups and whether any batch ran on the pool.
    """
    metrics = get_metrics()
    seconds = {}
    parallel_ran = {}
    reference = None
    for w in worker_counts:
        best = float("inf")
        out = None
        batches = metrics.counter("runtime.parallel_batches")
        for _ in range(repeats):
            reset_runtime()
            with timed(f"runtime.{name}.w{w}") as t:
                out = run(w)
            best = min(best, t.seconds)
        parallel_ran[w] = (
            metrics.counter("runtime.parallel_batches") > batches
        )
        seconds[w] = best
        fp = fingerprint(out)
        if reference is None:
            reference = fp
        else:
            assert fp == reference, (
                f"{name}: workers={w} output differs from workers="
                f"{worker_counts[0]}"
            )
    serial_s = seconds[worker_counts[0]]
    raw_speedup = {}
    speedup = {}
    for w in worker_counts:
        measured = (
            serial_s / seconds[w] if seconds[w] > 0 else float("inf")
        )
        raw_speedup[w] = measured
        # When no batch fanned out, the runtime executed the literal
        # workers=1 path — the serial floor is exact by construction
        # and any deviation in the raw ratio is timing noise.
        speedup[w] = measured if parallel_ran[w] else max(measured, 1.0)
    return {
        "seconds": {str(w): round(s, 4) for w, s in seconds.items()},
        "speedup": {str(w): round(s, 3) for w, s in speedup.items()},
        "raw_speedup": {
            str(w): round(s, 3) for w, s in raw_speedup.items()
        },
        "parallel_ran": {
            str(w): parallel_ran[w] for w in worker_counts
        },
    }


def test_runtime_bench():
    smoke = _smoke()
    worker_counts = [1, 2] if smoke else [1, 2, TENTPOLE_WORKERS]
    repeats = 2
    cores = _cores()
    mark = metrics_mark()

    # Shared experiment material (built once, outside every timing).
    setup = workload_setup(
        WORKLOAD,
        scale=0.004 if smoke else 0.01,
        n_images=2,
        image_shape=(48, 64),
        seed=0,
    )
    profiles = profile_accelerator(setup.accelerator, setup.images, rng=0)
    space = reduce_library(setup.accelerator, setup.library, profiles)
    qor_model, hw_model = fit_search_models(
        space, build_workload_engine(setup), 30, 15, seed=0
    )
    configs = space.random_configurations(16 if smoke else 128, rng=5)
    if smoke:
        lib_plan = GenerationPlan(
            {("add", 8): 16, ("mul", 8): 12}, seed=0,
            sample_size=1 << 12,
        )
    else:
        lib_plan = GenerationPlan(
            {
                ("add", 8): 40,
                ("add", 16): 24,
                ("mul", 8): 32,
                ("sub", 10): 24,
            },
            seed=0,
            sample_size=1 << 13,
        )
    budget = 400 if smoke else 800

    def run_evaluate_many(w):
        # A fresh engine per measurement: a warm synthesis memo would
        # hand later worker counts an unfair head start.
        engine = build_workload_engine(setup)
        return engine.evaluate_many(space, configs, workers=w)

    def run_library_build(w):
        # chunk_size=8 keeps several chunks per worker even for the
        # smoke plan.
        return build_library(
            lib_plan, workers=w, record_run=False, chunk_size=8
        ).library

    def run_portfolio(w):
        return PortfolioRunner(
            space,
            qor_model,
            hw_model,
            strategies=("hill", "random", "nsga2:population_size=16"),
            rounds=2,
            seed=0,
            workers=w,
        ).run(budget)

    sites = {
        "evaluate_many": _run_site(
            "evaluate_many",
            run_evaluate_many,
            pickle.dumps,
            worker_counts,
            repeats,
        ),
        "library_build": _run_site(
            "library_build",
            run_library_build,
            lambda lib: json.dumps(
                library_payload(lib), sort_keys=True
            ),
            worker_counts,
            repeats,
        ),
        "portfolio": _run_site(
            "portfolio",
            run_portfolio,
            lambda r: json.dumps(
                {
                    "configs": [list(c) for c in r.configs],
                    "points": r.points.tolist(),
                    "evaluations": r.evaluations,
                },
                sort_keys=True,
            ),
            worker_counts,
            repeats,
        ),
    }
    reset_runtime()

    min_speedup = min(
        site["speedup"][str(w)]
        for site in sites.values()
        for w in worker_counts[1:]
    )
    tentpole_speedup = max(
        sites["evaluate_many"]["speedup"].get(
            str(TENTPOLE_WORKERS), 0.0
        ),
        sites["library_build"]["speedup"].get(
            str(TENTPOLE_WORKERS), 0.0
        ),
    )
    tentpole_enforced = (
        TENTPOLE_WORKERS in worker_counts and cores >= TENTPOLE_WORKERS
    )

    lines = [
        f"workload {WORKLOAD}, {cores} usable cores, workers "
        f"{worker_counts} ({'smoke' if smoke else 'full'} mode, "
        f"best of {repeats})"
    ]
    for name, site in sites.items():
        per_w = "   ".join(
            f"w={w}: {site['seconds'][str(w)]:7.3f}s "
            f"({site['speedup'][str(w)]:.2f}x"
            f"{'' if site['parallel_ran'][str(w)] else ', serial'})"
            for w in worker_counts
        )
        lines.append(f"{name:14s} {per_w}")
    lines.append(
        f"min parallel speedup: {min_speedup:.2f}x"
    )
    lines.append(
        f"tentpole ({TENTPOLE_WORKERS} workers, "
        f">= {MIN_TENTPOLE_SPEEDUP}x): "
        + (
            f"{tentpole_speedup:.2f}x"
            if TENTPOLE_WORKERS in worker_counts
            else "not measured"
        )
        + (
            " [enforced]"
            if tentpole_enforced
            else f" [skipped: {cores} cores]"
        )
    )
    write_result("runtime", "\n".join(lines))

    doc = {
        "version": 1,
        "bench": "runtime",
        "mode": "smoke" if smoke else "full",
        "cores": cores,
        "worker_counts": worker_counts,
        "sites": sites,
        "min_parallel_speedup": round(min_speedup, 3),
        "parallel_speedup": round(min_speedup, 3),
        "tentpole_speedup": round(tentpole_speedup, 3),
        "tentpole_enforced": tentpole_enforced,
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

    if tentpole_enforced:
        assert tentpole_speedup >= MIN_TENTPOLE_SPEEDUP, (
            f"tentpole speedup only {tentpole_speedup:.2f}x at "
            f"{TENTPOLE_WORKERS} workers"
        )


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI variant (workers 1 and 2)",
    )
    cli_args = parser.parse_args()
    if cli_args.smoke:
        os.environ["REPRO_RUNTIME_SMOKE"] = "1"
    test_runtime_bench()
    print("bench_runtime: OK")
