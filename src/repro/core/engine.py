"""Batched evaluation engine — the fast *real* (reference) path.

The expensive step the estimation models amortise is the full analysis of
a configuration: simulating the accelerator over every (image, scenario)
run and synthesising the composed netlist.  The seed implementation
re-interpreted the dataflow graph per run and synthesised every
configuration from scratch; :class:`EvaluationEngine` makes the same
analysis fast and scalable in four layered steps:

1. **compile** — the accelerator graph is lowered once to a
   :class:`~repro.accelerators.graph.GraphProgram` (flat instruction
   list, resolved operand registers, precomputed masks);
2. **batch** — all (image x scenario) runs are stacked into one
   ``(runs, pixels)`` input batch, so a configuration's QoR needs a
   single vectorised pass instead of ``runs`` re-interpretations, and
   SSIM is scored by a :class:`~repro.imaging.metrics.BatchedSsim` whose
   golden-side window statistics are precomputed once and whose
   test-side windows run image by image on the package's numpy
   Gaussian (no scipy import in the engine or its pool workers);
3. **route** — :meth:`evaluate_many` takes one route for every space:
   when the runtime's worker count
   (:func:`~repro.core.runtime.default_workers`) is 2 or more, the
   unique configurations fan out in contiguous chunks to worker
   processes through the shared runtime (the analyses are
   independent), otherwise they run in a plain per-configuration loop.
   The configuration-axis batched pass
   (:meth:`EvaluationEngine.qor_batch`) stays defined but is no longer
   routed to: it was slower than the per-configuration loop at every
   measured size;
4. **memoise** — synthesis reports are cached by the configuration's
   component-record tuple, and duplicate configurations inside one batch
   are analysed once.

Numerical contract: QoR values match the per-run reference path to float
round-off (the SSIM math is identical; only the summation grouping
differs), and hardware reports are exactly those of
:func:`~repro.synthesis.synthesizer.synthesize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators.base import ImageAccelerator
from repro.core.configuration import Configuration, ConfigurationSpace
from repro.core.runtime import default_workers, get_runtime
from repro.imaging.metrics import BatchedSsim
from repro.library.component import ComponentRecord
from repro.synthesis.synthesizer import SynthesisReport, synthesize
from repro.telemetry import get_metrics, maybe_span

#: Peak working-set budget of one configuration tile.  One config's
#: pass holds a few live int64 register batches plus the float64 SSIM
#: temporaries; the tile keeps ``tile * per_config_bytes`` under
#: this bound so peak RSS stays flat however many configs a generation
#: carries.
_CONFIG_TILE_BUDGET_BYTES = 256 * 1024 * 1024

#: Estimated live arrays per configuration inside the tiled pass
#: (int64 register batch + reshaped output + SSIM blur temporaries).
_ARRAYS_PER_CONFIG = 12


@dataclass(frozen=True)
class EvaluationResult:
    """Real QoR and hardware parameters of one configuration."""

    qor: float
    area: float
    delay: float
    power: float

    @property
    def energy(self) -> float:
        return self.power * self.delay


class EvaluationEngine:
    """Caches benchmark inputs and golden outputs; evaluates configurations.

    ``scenarios`` lists ``extra``-input dicts (kernel coefficient sets for
    the generic Gaussian filter); each image is simulated under every
    scenario and the QoR is the mean SSIM over all runs, following the
    paper's protocol (§3).

    ``synth_cache`` plugs a second-level synthesis cache behind the
    in-memory memo: any object with ``get(memo_key)`` /
    ``put(memo_key, report)`` (e.g.
    :class:`repro.store.synth_cache.StoreSynthCache`, which persists
    reports in the experiment store and shares them across processes
    and runs).  It must be fork-safe and picklable for parallel
    ``evaluate_many``.
    """

    def __init__(
        self,
        accelerator: ImageAccelerator,
        images: Sequence[np.ndarray],
        scenarios: Optional[Sequence[Dict[str, int]]] = None,
        synth_cache=None,
    ):
        if not images:
            raise ValueError("need at least one benchmark image")
        self.accelerator = accelerator
        self.images = [np.asarray(img) for img in images]
        self.scenarios: List[Optional[Dict[str, int]]] = (
            list(scenarios) if scenarios else [None]
        )
        self.synth_cache = synth_cache
        self._program = accelerator.graph.compile()
        self._synth_memo: Dict[Tuple[Tuple[str, str], ...],
                               SynthesisReport] = {}
        self.synth_hits = 0
        self.synth_store_hits = 0
        self.synth_misses = 0

        shapes = {img.shape for img in self.images}
        self._uniform = len(shapes) == 1
        if self._uniform:
            self._build_stacked()
        else:
            self._build_per_run()

    # -- construction helpers -------------------------------------------------

    def _build_stacked(self) -> None:
        """Stack all runs into one batch; precompute golden SSIM stats.

        The batch is 3-D broadcastable — ``(images, 1, pixels)`` pixel
        stacks against ``(1, scenarios, 1)`` extra columns — so resident
        memory is one copy of the pixel data however many scenarios run.
        """
        stacked = self.accelerator.stack_runs(self.images, self.scenarios)
        # Mask once at build; every execute then skips the input masking.
        for name, _, mask in self._program.inputs:
            stacked[name] = stacked[name] & mask
        self._inputs = stacked
        self._batch_shape = (
            len(self.images),
            len(self.scenarios),
            int(self.images[0].size),
        )
        n_runs = len(self.images) * len(self.scenarios)
        self._run_shape = (n_runs,) + self.images[0].shape
        golden = self._execute_stack(None)
        self._ssim = BatchedSsim(golden)

    def _build_per_run(self) -> None:
        """Heterogeneous image shapes: keep the per-run compiled path."""
        acc = self.accelerator
        self._runs: List[Tuple[Dict[str, np.ndarray], BatchedSsim]] = []
        for image in self.images:
            window = acc.window_inputs(image)
            for extra in self.scenarios:
                inputs = dict(window)
                merged = acc.extra_inputs()
                if extra:
                    merged.update(extra)
                for name, value in merged.items():
                    inputs[name] = np.int64(value)
                golden = self._program.execute(inputs).reshape(
                    (1,) + image.shape
                )
                self._runs.append((inputs, BatchedSsim(golden)))

    def _execute_stack(self, assignment) -> np.ndarray:
        """One vectorised pass over the whole run batch."""
        out = self._program.execute(
            self._inputs, assignment, assume_masked=True
        )
        return np.reshape(
            np.broadcast_to(out, self._batch_shape), self._run_shape
        )

    # -- basic queries --------------------------------------------------------

    @property
    def run_count(self) -> int:
        """Number of (image, scenario) simulation runs per evaluation."""
        if self._uniform:
            return self._run_shape[0]
        return len(self._runs)

    def synth_stats(self) -> Dict[str, int]:
        """This process's synthesis cache counters (for run manifests)."""
        return {
            "synth_hits": self.synth_hits,
            "synth_store_hits": self.synth_store_hits,
            "synth_misses": self.synth_misses,
        }

    # -- QoR ------------------------------------------------------------------

    def qor_per_run(self, assignment: Dict[str, object]) -> np.ndarray:
        """SSIM of every (image, scenario) run under ``assignment``."""
        if self._uniform:
            return np.asarray(self._ssim(self._execute_stack(assignment)))
        scores = []
        for inputs, ssim_ref in self._runs:
            out = self._program.execute(inputs, assignment).reshape(
                ssim_ref.shape
            )
            scores.append(float(ssim_ref(out)[0]))
        return np.asarray(scores)

    def qor(self, assignment: Dict[str, object]) -> float:
        """Mean SSIM of the approximate output against the golden output."""
        return float(np.mean(self.qor_per_run(assignment)))

    # -- hardware -------------------------------------------------------------

    @staticmethod
    def _memo_key(
        records: Dict[str, ComponentRecord]
    ) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (op, record.name) for op, record in sorted(records.items())
        )

    def hardware(
        self, records: Dict[str, ComponentRecord]
    ) -> SynthesisReport:
        """Compose and synthesise the accelerator with ``records``.

        Reports are memoised on the record tuple: after dead-gate sweeps
        many configurations share composed netlists, and repeated
        evaluations of the same configuration (training-set overlaps,
        Pareto re-analysis) skip synthesis entirely.  A miss then falls
        through to ``synth_cache`` (when plugged), whose hits are
        adopted into the memo and counted in ``synth_store_hits`` —
        ``synth_misses`` counts *actual* synthesis runs only.  Parallel
        ``evaluate_many`` merges the workers' memo entries and counter
        deltas back, so the counters cover pool-evaluated batches too.
        """
        key = self._memo_key(records)
        cached = self._synth_memo.get(key)
        if cached is not None:
            self.synth_hits += 1
            get_metrics().inc("engine.synth_hits")
            return cached
        if self.synth_cache is not None:
            cached = self.synth_cache.get(key)
            if cached is not None:
                self.synth_store_hits += 1
                get_metrics().inc("engine.synth_store_hits")
                self._synth_memo[key] = cached
                return cached
        self.synth_misses += 1
        get_metrics().inc("engine.synth_misses")
        netlist = self.accelerator.to_netlist(records)
        rep = synthesize(netlist, in_place=True)
        self._synth_memo[key] = rep
        if self.synth_cache is not None:
            self.synth_cache.put(key, rep)
        return rep

    # -- combined -------------------------------------------------------------

    def evaluate(
        self, space: ConfigurationSpace, config: Configuration
    ) -> EvaluationResult:
        """Full analysis of one configuration (simulation + synthesis)."""
        get_metrics().inc("engine.evaluations")
        impls = space.assignment_callables(config)
        quality = self.qor(impls)
        rep = self.hardware(space.records(config))
        return EvaluationResult(
            qor=quality, area=rep.area, delay=rep.delay, power=rep.power
        )

    def evaluate_many(
        self,
        space: ConfigurationSpace,
        configs: Sequence[Configuration],
    ) -> List[EvaluationResult]:
        """Full analysis of a batch of configurations.

        Duplicates are analysed once.  With a worker count of 2 or more
        (:func:`~repro.core.runtime.default_workers`) and at least two
        unique configurations, contiguous chunks of them go through the
        shared runtime's pool; otherwise a plain per-configuration loop
        runs them.  The route depends on neither
        the space nor a timing probe, and both produce results
        bit-identical to ``[evaluate(space, c) for c in configs]``.
        """
        configs = [tuple(c) for c in configs]
        unique: Dict[Configuration, int] = {}
        for config in configs:
            if config not in unique:
                unique[config] = len(unique)
        ordered = list(unique)
        metrics = get_metrics()
        metrics.inc("engine.evaluate_batches")
        metrics.observe("engine.batch_size", len(configs))

        with maybe_span(
            "engine.evaluate_many", cat="engine",
            args={"configs": len(configs), "unique": len(ordered)},
        ):
            if default_workers() is not None and len(ordered) >= 2:
                results = self._evaluate_parallel(space, ordered)
            else:
                results = [self.evaluate(space, c) for c in ordered]
        return [results[unique[c]] for c in configs]

    # -- configuration-axis batched pass (not routed to; see module doc) -----

    def _batch_tables(self, space: ConfigurationSpace, configs):
        """Per-op gather tables in program order, or ``None`` to fall back.

        ``None`` (classic route) for per-run engines (heterogeneous
        image shapes) and for spaces with non-LUT (wide)
        implementations.
        """
        if not self._uniform or not configs:
            return None
        by_op = space.batch_tables(configs)
        if by_op is None:
            return None
        return [by_op.get(name) for name in self._program.op_names]

    @staticmethod
    def _slice_tables(tables, start: int, stop: Optional[int] = None):
        """Restrict every table's config rows to ``[start:stop]``."""
        return [
            entry
            if entry is None
            else (entry[0], entry[1][start:stop], entry[2], entry[3])
            for entry in tables
        ]

    def config_tile(self, n_configs: int) -> int:
        """Tile size on the config axis of the batched pass.

        The tile bounds the live working set —
        ``tile * run_elements * 8 bytes * ~12 arrays`` — to ~256 MiB,
        so batching 128 configurations does not cost 128x the memory of
        one.  Tiling only changes how many configs share one pass;
        every tile size produces byte-identical results.
        """
        elements = 1
        for dim in self._run_shape:
            elements *= int(dim)
        per_config = max(elements * 8 * _ARRAYS_PER_CONFIG, 1)
        tile = max(1, _CONFIG_TILE_BUDGET_BYTES // per_config)
        return min(tile, max(n_configs, 1))

    def qor_batch(self, tables, n_configs: int) -> np.ndarray:
        """Mean SSIM of ``n_configs`` configurations in tiled passes.

        Entry ``c`` equals ``qor(assignment_c)`` bit-for-bit: the
        batched program pass gathers the same LUT entries, the
        config-axis SSIM runs the same Gaussian windows and ufunc
        chain, and the per-config mean reduces the same contiguous
        per-run score rows.
        """
        metrics = get_metrics()
        metrics.inc("engine.config_batches")
        tile = self.config_tile(n_configs)
        scores = np.empty(n_configs, dtype=np.float64)
        for lo in range(0, n_configs, tile):
            hi = min(lo + tile, n_configs)
            part = self._slice_tables(tables, lo, hi)
            raw = self._program.execute_batch(
                self._inputs, part, assume_masked=True
            )
            n = hi - lo
            shaped = np.reshape(
                np.broadcast_to(raw, (n,) + self._batch_shape),
                (n,) + self._run_shape,
            )
            scores[lo:hi] = self._ssim.batch(shaped).mean(axis=1)
            metrics.observe("engine.config_tile", n)
        return scores

    def _evaluate_vectorized(
        self,
        space: ConfigurationSpace,
        configs: List[Configuration],
        tables,
    ) -> List[EvaluationResult]:
        """Batched simulation + per-config (memoised) synthesis."""
        qors = self.qor_batch(tables, len(configs))
        metrics = get_metrics()
        results = []
        for config, quality in zip(configs, qors):
            metrics.inc("engine.evaluations")
            rep = self.hardware(space.records(config))
            results.append(
                EvaluationResult(
                    qor=float(quality),
                    area=rep.area,
                    delay=rep.delay,
                    power=rep.power,
                )
            )
        return results

    def _evaluate_parallel(
        self,
        space: ConfigurationSpace,
        configs: List[Configuration],
    ) -> List[EvaluationResult]:
        # Contiguous chunks, a few per worker so stragglers even out.
        n_chunks = min(len(configs), (default_workers() or 1) * 4)
        chunks = [
            [configs[i] for i in part]
            for part in np.array_split(np.arange(len(configs)), n_chunks)
            if len(part)
        ]
        # Chunks that run in-process count on this engine directly, so
        # the totals are rebuilt from the counters before the batch plus
        # every chunk's delta, wherever it ran.
        totals = self.synth_stats()
        chunk_results = get_runtime().map(
            _evaluate_chunk,
            chunks,
            context=(self, space),
            label="evaluate_many",
        )
        flat: List[EvaluationResult] = []
        for part, memo_updates, counts in chunk_results:
            flat.extend(part)
            # Adopt the workers' synthesis reports so later in-process
            # evaluations of the same configurations skip synthesis.
            for key, report in memo_updates.items():
                self._synth_memo.setdefault(key, report)
            for name, delta in counts.items():
                totals[name] += delta
        for name, total in totals.items():
            setattr(self, name, total)
        return flat


def _evaluate_chunk(context, chunk: List[Configuration]):
    """Runtime task: analyse one chunk on the (shared) engine context.

    Returns the results, the synthesis-memo entries the chunk added and
    the chunk's deltas of the engine's synthesis counters.
    """
    engine, space = context
    known = set(engine._synth_memo)
    before = engine.synth_stats()
    results = [engine.evaluate(space, config) for config in chunk]
    memo_updates = {
        key: report
        for key, report in engine._synth_memo.items()
        if key not in known
    }
    counts = {
        name: value - before[name]
        for name, value in engine.synth_stats().items()
    }
    return results, memo_updates, counts
