"""Store-backend benchmark — cold/warm pipeline cost per topology.

Runs the same tiny workload pipeline against both store backends:

1. **sqlite**  — the local single-tree store;
2. **remote**  — an HTTP store served by an in-process ``repro serve``.

For each backend the pipeline runs twice on a fresh root: the **cold**
pass pays synthesis and model fitting, the **warm** pass must answer
entirely from the store — zero synthesis misses, zero model refits,
every stage a cache hit, byte-identical front.  That is the PR's
acceptance bar: switching the backend changes where bytes live, never
what the pipeline computes or recomputes.

Results land in ``results/store_backends.txt``; the machine-readable
doc of each run is appended to the ``BENCH_store_backends.json``
trajectory (a JSON array) in the working tree.

Run ``python benchmarks/bench_store_backends.py --smoke`` for the tiny
CI variant.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from benchmarks._common import (
    bench_metrics,
    metrics_mark,
    timed,
    write_result,
)

#: Bench trajectory file (machine-readable, one doc per run).
BENCH_JSON = Path("BENCH_store_backends.json")

WORKLOAD = "sobel"


def _smoke() -> bool:
    return os.environ.get("REPRO_STORE_SMOKE", "0") not in (
        "0", "", "false",
    )


def _pipeline(store, smoke):
    from repro.experiments.setup import run_workload_pipeline

    _, result = run_workload_pipeline(
        WORKLOAD,
        scale=0.001 if smoke else 0.002,
        n_images=1 if smoke else 2,
        train=12 if smoke else 24,
        evals=300 if smoke else 2_000,
        seed=0,
        store=store,
    )
    return result


def _assert_warm(name, cold, warm):
    assert set(warm.stage_cache.values()) == {"hit"}, (
        name, warm.stage_cache,
    )
    stats = warm.engine_stats
    assert stats.get("synth_misses", 0) == 0, (name, stats)
    assert stats.get("model_fits", 0) == 0, (name, stats)
    assert warm.final_configs == cold.final_configs, name
    assert (warm.final_points.tolist()
            == cold.final_points.tolist()), name


def _backend_cases(tmp):
    """Yield ``(name, store, cleanup)`` for the two topologies."""
    from repro.serve import (
        ApiKeyRegistry,
        Coordinator,
        ServeApp,
        ServerThread,
    )
    from repro.store import ArtifactStore, open_store

    yield (
        "sqlite",
        ArtifactStore(Path(tmp) / "sqlite"),
        lambda: None,
    )
    server = ServerThread(
        ServeApp(
            Coordinator(store=ArtifactStore(Path(tmp) / "served")),
            ApiKeyRegistry(None),
        )
    ).start()
    yield "remote", open_store(server.base_url), server.stop


def test_store_backends():
    smoke = _smoke()
    mark = metrics_mark()
    rows = []

    with tempfile.TemporaryDirectory(
        prefix="repro-bench-store-"
    ) as tmp:
        for name, store, cleanup in _backend_cases(tmp):
            try:
                with timed(f"store.{name}.cold") as t:
                    cold = _pipeline(store, smoke)
                cold_s = t.seconds
                with timed(f"store.{name}.warm") as t:
                    warm = _pipeline(store, smoke)
                warm_s = t.seconds
                _assert_warm(name, cold, warm)
                rows.append(
                    {
                        "backend": name,
                        "uri_scheme": store.backend.scheme,
                        "cold_seconds": round(cold_s, 3),
                        "warm_seconds": round(warm_s, 3),
                        "speedup": round(cold_s / max(warm_s, 1e-9),
                                         1),
                    }
                )
            finally:
                cleanup()

    lines = [
        f"{row['backend']:>8}: cold {row['cold_seconds']:.2f}s, "
        f"warm {row['warm_seconds']:.2f}s "
        f"({row['speedup']:.1f}x, 0 synth misses, 0 refits)"
        for row in rows
    ]
    write_result(
        "store_backends",
        "\n".join(lines)
        + f"\n({'smoke' if smoke else 'full'} mode)",
    )

    doc = {
        "mode": "smoke" if smoke else "full",
        "workload": WORKLOAD,
        "backends": rows,
        "metrics": bench_metrics(mark),
    }
    trajectory = []
    if BENCH_JSON.is_file():
        try:
            trajectory = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(doc)
    BENCH_JSON.write_text(json.dumps(trajectory, indent=2) + "\n")

    # the warm pass must be much cheaper than the cold one everywhere
    for row in rows:
        assert row["speedup"] >= 2, row


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny-budget variant for CI",
    )
    cli_args = parser.parse_args()
    if cli_args.smoke:
        os.environ["REPRO_STORE_SMOKE"] = "1"
    test_store_backends()
    print("bench_store_backends: OK")
