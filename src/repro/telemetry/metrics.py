"""Process-wide metrics: counters, gauges, bounded-reservoir histograms.

One :class:`MetricsRegistry` per process (``get_metrics()``), guarded by
a single lock so every operation is thread-safe. Metric names are flat
dotted strings (``engine.evaluations``,
``pipeline.stage_seconds.model_construction``).

Cross-process aggregation: ``ParallelRuntime`` workers accumulate into
their *own* process registry and export an :func:`export_delta` with
each task result; the parent :func:`merge`\\ s those deltas back, so
``snapshot()`` in the parent reflects work done everywhere.

Histograms keep a bounded reservoir (algorithm R, deterministic seed —
no wall-clock entropy) so percentiles stay O(capacity) in memory no
matter how many observations arrive.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
]

#: Bounded reservoir size per histogram; percentiles are exact until
#: a histogram sees more observations than this.
RESERVOIR_CAPACITY = 1024

#: Percentiles exported by ``snapshot()``.
QUANTILES = (0.5, 0.95, 0.99)


class _Histogram:
    """Count/sum/min/max plus a bounded algorithm-R reservoir."""

    __slots__ = ("count", "total", "min", "max", "samples", "_rng")

    def __init__(self, seed: int = 0) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        # Deterministic per-histogram stream: reservoir contents (and
        # hence reported percentiles) are reproducible run to run.
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < RESERVOIR_CAPACITY:
            self.samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_CAPACITY:
                self.samples[slot] = value

    def merge(self, other: dict) -> None:
        """Absorb an exported delta (see :meth:`export`)."""
        self.count += other["count"]
        self.total += other["sum"]
        for bound, better in (("min", min), ("max", max)):
            value = other[bound]
            if value is None:
                continue
            mine = getattr(self, bound)
            setattr(
                self, bound,
                value if mine is None else better(mine, value),
            )
        for value in other["samples"]:
            if len(self.samples) < RESERVOIR_CAPACITY:
                self.samples.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < RESERVOIR_CAPACITY:
                    self.samples[slot] = value

    def percentile(self, q: float) -> Optional[float]:
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(0, int(round(q * len(ordered))) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    def summary(self) -> dict:
        doc = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }
        for q in QUANTILES:
            doc[f"p{int(q * 100)}"] = self.percentile(q)
        return doc

    def export(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "samples": list(self.samples),
        }


class MetricsRegistry:
    """Thread-safe counters, gauges, and histograms under one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    # -- writes ------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = _Histogram(seed=len(self._histograms))
                self._histograms[name] = histogram
            histogram.observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Observe the elapsed seconds of the wrapped block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reads -------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def mark(self) -> dict:
        """A counter checkpoint for later ``snapshot(since=...)``."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self, since: Optional[dict] = None) -> dict:
        """Everything, JSON-ready; ``since`` diffs the counters.

        A diffed snapshot keeps the counters that moved since the mark
        and those first touched after it, even by zero (a build that
        found no store hit still reports ``library.store_hits``).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: h.summary()
                for name, h in self._histograms.items()
            }
        if since is not None:
            counters = {
                name: value - since.get(name, 0)
                for name, value in counters.items()
                if value - since.get(name, 0) or name not in since
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    # -- cross-process aggregation -----------------------------------

    def export_delta(self) -> Optional[dict]:
        """Atomically drain everything accumulated since the last call.

        Returns ``None`` when nothing happened — the common case on
        task paths that never touch a metric.
        """
        with self._lock:
            if not (self._counters or self._histograms
                    or self._gauges):
                return None
            delta = {
                "counters": self._counters,
                "gauges": self._gauges,
                "histograms": {
                    name: h.export()
                    for name, h in self._histograms.items()
                },
            }
            self._counters = {}
            self._gauges = {}
            self._histograms = {}
        return delta

    def merge(self, delta: Optional[dict]) -> None:
        """Absorb a delta exported by another process (or thread)."""
        if not delta:
            return
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self._counters[name] = (
                    self._counters.get(name, 0) + value
                )
            for name, value in delta.get("gauges", {}).items():
                self._gauges[name] = value
            for name, exported in delta.get(
                "histograms", {}
            ).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = _Histogram(seed=len(self._histograms))
                    self._histograms[name] = histogram
                histogram.merge(exported)

    def reset(self) -> None:
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}


_REGISTRY: Optional[MetricsRegistry] = None
_REGISTRY_PID: Optional[int] = None
_REGISTRY_LOCK = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (rebuilt after a fork)."""
    global _REGISTRY, _REGISTRY_PID
    registry = _REGISTRY
    if registry is not None and _REGISTRY_PID == os.getpid():
        return registry
    with _REGISTRY_LOCK:
        if _REGISTRY is None or _REGISTRY_PID != os.getpid():
            _REGISTRY = MetricsRegistry()
            _REGISTRY_PID = os.getpid()
        return _REGISTRY


def reset_metrics() -> None:
    """Drop the process registry (tests)."""
    global _REGISTRY, _REGISTRY_PID
    with _REGISTRY_LOCK:
        _REGISTRY = None
        _REGISTRY_PID = None
