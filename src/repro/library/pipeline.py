"""Streaming, chunked, store-backed library construction.

The library build is the single largest cold-start cost of the
methodology: thousands of components, each needing an exhaustive LUT
grid (or a wide-operand sample), a structural netlist, optimisation and
a synthesis report.  This module turns that serial loop into a
three-stage pipeline:

1. **generation** — :func:`~repro.library.generation.enumerate_plan`
   produces the deterministic circuit inventory (cheap, serial, one
   spawned child RNG per signature);
2. **characterisation + synthesis** — the inventory is cut into
   fixed-size chunks that worker processes consume
   (:data:`REPRO_WORKERS`/``workers`` convention).  Each chunk is
   characterised through the batched
   :func:`~repro.circuits.characterization.characterize_many` (shared
   exact LUTs and operand samples) and synthesised per component;
3. **assembly** — chunk results stream back in order and land in one
   :class:`~repro.library.library.ComponentLibrary`.

Chunk boundaries are fixed (independent of the worker count) and no
worker consumes shared RNG state, so the built library is
**bit-identical for every ``workers`` setting**.

With a ``store``, every component is memoised individually in the
experiment store under the ``component`` artifact kind, keyed by a
content hash of (family, model version, width, params[, sample
size]).  Interrupted, re-scaled or re-planned builds therefore only pay
for components they have never seen: growing a plan from 500 to 5000
components characterises 4500, and a warm rebuild characterises
**zero** and runs **zero** synthesis (asserted by
``tests/library/test_library_pipeline.py``).  Each store-backed build also
records a ``library-build`` manifest in the run ledger with its cache
statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.circuits.luts import MAX_LUT_WIDTH
from repro.library.component import (
    FAMILY_REGISTRY,
    ComponentRecord,
    records_from_circuits,
)
from repro.library.generation import GenerationPlan, enumerate_plan
from repro.library.library import ComponentLibrary
from repro.telemetry import get_logger, get_metrics, maybe_span

#: Artifact kind of per-component memo entries in the experiment store.
COMPONENT_KIND = "component"

#: Components per worker task.  Fixed — never derived from the worker
#: count — so chunk boundaries (and thus results) are identical for any
#: parallelism.  Large enough to amortise the shared exact-LUT build of
#: characterize_many and the per-task IPC, small enough to stream
#: progress and balance load.
DEFAULT_CHUNK_SIZE = 32


def component_key(circuit, sample_size: int) -> str:
    """Content-address of one characterised component.

    The key covers everything that shapes the stored record: the
    circuit identity (family + width + params), the family's behavioural
    :attr:`~repro.circuits.base.ArithmeticCircuit.model_version` and,
    for wide operands only, the characterisation sample size — exhaustive
    characterisation does not depend on it, so narrow components stay
    warm across sample-size changes.
    """
    from repro.store.hashing import content_hash

    return content_hash(
        {
            "component": {
                "family": type(circuit).__name__,
                "model_version": circuit.model_version,
                "width": circuit.width,
                "params": circuit.params(),
                "sample_size": (
                    None if circuit.width <= MAX_LUT_WIDTH
                    else int(sample_size)
                ),
            }
        }
    )


@dataclass
class LibraryBuildStats:
    """Cache and work accounting of one pipeline run."""

    components: int = 0
    store_hits: int = 0
    characterized: int = 0
    synthesized: int = 0
    chunks: int = 0
    workers: int = 1
    seconds: float = 0.0
    per_signature: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "components": self.components,
            "store_hits": self.store_hits,
            "characterized": self.characterized,
            "synthesized": self.synthesized,
            "chunks": self.chunks,
            "workers": self.workers,
            "seconds": round(self.seconds, 6),
            "per_signature": dict(self.per_signature),
        }


@dataclass
class LibraryBuildResult:
    """A built library plus how it was built."""

    library: ComponentLibrary
    stats: LibraryBuildStats
    run_id: Optional[str] = None


def _run_chunk(context, task):
    """Characterise + synthesise one chunk (a shared-runtime task).

    ``context`` is ``(store, sample_size)``.  Components already present
    in the store are decoded from their memo entry; the rest are
    characterised through the batched ``characterize_many`` and written
    back with one ``put_many`` (one index transaction per chunk).
    Returns serialisable payload dicts — records cross process
    boundaries (and the store) in their ``to_dict`` form, which
    round-trips exactly.
    """
    store, sample_size = context
    index, specs = task
    payloads: List[Optional[Dict]] = [None] * len(specs)
    miss_slots: List[int] = []
    miss_circuits = []
    miss_keys: List[str] = []
    hits = 0
    for slot, (family, width, params) in enumerate(specs):
        circuit = FAMILY_REGISTRY[family](width, **params)
        key = component_key(circuit, sample_size)
        if store is not None:
            cached = store.get(COMPONENT_KIND, key)
            if cached is not None:
                payloads[slot] = cached
                hits += 1
                continue
        miss_slots.append(slot)
        miss_circuits.append(circuit)
        miss_keys.append(key)
    if miss_circuits:
        records = records_from_circuits(
            miss_circuits, sample_size=sample_size
        )
        for slot, record in zip(miss_slots, records):
            payloads[slot] = record.to_dict()
        if store is not None:
            store.put_many(
                COMPONENT_KIND,
                [
                    (key, payloads[slot], {"name": record.name})
                    for slot, key, record in zip(
                        miss_slots, miss_keys, records
                    )
                ],
            )
    return index, payloads, hits, len(miss_circuits)


def _execute_chunks(tasks, context, workers: Optional[int]):
    """Yield chunk results in order through the shared runtime.

    The runtime streams results back in task order, so any ``workers``
    setting produces the identical library.
    """
    from repro.core.runtime import get_runtime

    yield from get_runtime().imap(
        _run_chunk,
        tasks,
        context=context,
        workers=min(workers or 1, len(tasks)),
        label="library-build",
    )


def build_library(
    plan: GenerationPlan,
    workers: Optional[int] = None,
    store=None,
    progress: Optional[Callable[[str], None]] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    record_run: bool = True,
) -> LibraryBuildResult:
    """Build the characterised library of ``plan`` through the pipeline.

    ``workers`` bounds the characterisation/synthesis process count
    (``None`` falls back to ``REPRO_WORKERS``, then every usable core);
    the result does not depend on it.  ``store`` enables per-component
    memoisation (and a ``library-build`` ledger manifest unless
    ``record_run`` is off).  ``progress`` receives one human-readable
    line per completed chunk; by default those lines go to the
    structured logger (stderr) at DEBUG, keeping programmatic builds
    quiet and ``--json`` stdout pure — the CLI passes the logger's INFO
    method for visible progress.
    """
    from repro.core.runtime import default_workers, validate_workers

    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if workers is None:
        workers = default_workers()
    else:
        workers = validate_workers(workers)
    if progress is None:
        progress = get_logger("library").debug

    start = time.perf_counter()
    inventory = enumerate_plan(plan)
    specs = [
        (type(circuit).__name__, circuit.width, circuit.params())
        for _, circuit in inventory
    ]
    tasks = [
        (i, specs[offset:offset + chunk_size])
        for i, offset in enumerate(range(0, len(specs), chunk_size))
    ]

    stats = LibraryBuildStats(
        components=len(specs),
        chunks=len(tasks),
        workers=workers or 1,
    )
    library = ComponentLibrary()
    cursor = 0
    done = 0
    metrics = get_metrics()
    metrics_mark = metrics.mark()
    with maybe_span(
        "library.build", cat="library",
        args={"components": len(specs), "chunks": len(tasks)},
    ):
        for index, payloads, hits, misses in _execute_chunks(
            tasks, (store, plan.sample_size), workers
        ):
            for payload in payloads:
                record = ComponentRecord.from_dict(payload)
                cursor += 1
                library.add(record)
                kind, width = record.signature
                label = f"{kind}{width}"
                stats.per_signature[label] = (
                    stats.per_signature.get(label, 0) + 1
                )
            stats.store_hits += hits
            stats.characterized += misses
            stats.synthesized += misses
            done += 1
            if progress is not None:
                progress(
                    f"chunk {done}/{len(tasks)}: "
                    f"{cursor}/{len(specs)} "
                    f"components ({stats.store_hits} cached)"
                )
    stats.seconds = time.perf_counter() - start
    metrics.inc("library.components_built", stats.characterized)
    metrics.inc("library.store_hits", stats.store_hits)
    metrics.inc("library.chunks", stats.chunks)

    run_id = None
    if store is not None and record_run:
        run_id = _record_build(
            store, plan, stats, metrics_mark=metrics_mark
        )
    return LibraryBuildResult(
        library=library, stats=stats, run_id=run_id
    )


def _record_build(
    store,
    plan: GenerationPlan,
    stats: LibraryBuildStats,
    metrics_mark: Optional[Dict] = None,
) -> str:
    """Write the ledger manifest of one store-backed build."""
    from repro.store import RunLedger
    from repro.store.hashing import content_hash

    run_id = RunLedger.new_run_id()
    cache = (
        "hit" if stats.characterized == 0
        else "miss" if stats.store_hits == 0
        else "partial"
    )
    counts = [
        [kind, width, count]
        for (kind, width), count in sorted(plan.counts.items())
    ]
    RunLedger(store).record(
        run_id,
        kind="library-build",
        label="library:" + "-".join(
            f"{kind}{width}" for kind, width in sorted(plan.counts)
        ),
        params={
            "counts": counts,
            "sample_size": plan.sample_size,
        },
        config_hash=content_hash(
            {
                "counts": counts,
                "seed": plan.seed,
                "sample_size": plan.sample_size,
            }
        ),
        stages=[
            {
                "name": "characterise",
                "seconds": round(stats.seconds, 6),
                "cache": cache,
            }
        ],
        seed=plan.seed,
        extra={
            "build": stats.as_dict(),
            "metrics": get_metrics().snapshot(since=metrics_mark),
        },
    )
    return run_id
