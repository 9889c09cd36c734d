"""Shared observability layer: metrics, span tracing, structured logs.

Three independent pieces with one design rule — *disabled paths cost
nothing measurable*:

- :mod:`repro.telemetry.metrics` — process-wide counters/gauges/
  histograms with cross-process delta aggregation.
- :mod:`repro.telemetry.tracing` — Chrome trace-event spans that
  stitch across ``ParallelRuntime`` workers.
- :mod:`repro.telemetry.logs` — JSON-lines/text logging to stderr.

:func:`collect_worker_delta` / :func:`absorb_worker_delta` are the
runtime's piggyback hooks: a worker drains its metrics and trace
events into one picklable dict per task; the parent folds it back in.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.logs import (
    LOG_FORMAT_ENV,
    LOG_LEVEL_ENV,
    get_logger,
    setup_logging,
)
from repro.telemetry.metrics import (
    MetricsRegistry,
    get_metrics,
    reset_metrics,
)
from repro.telemetry.tracing import (
    TRACE_ENV,
    Span,
    Tracer,
    complete_event,
    current_tracer,
    drain_worker_events,
    install_tracer,
    maybe_span,
    uninstall_tracer,
    worker_tracer,
)

__all__ = [
    "TRACE_ENV",
    "LOG_LEVEL_ENV",
    "LOG_FORMAT_ENV",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "get_metrics",
    "reset_metrics",
    "get_logger",
    "setup_logging",
    "install_tracer",
    "uninstall_tracer",
    "current_tracer",
    "maybe_span",
    "complete_event",
    "worker_tracer",
    "drain_worker_events",
    "collect_worker_delta",
    "absorb_worker_delta",
]


def collect_worker_delta() -> Optional[dict]:
    """Everything this process accumulated, drained for the piggyback.

    Returns ``None`` when neither metrics nor trace events exist —
    the overwhelmingly common case with telemetry off, so the parent
    can skip the merge entirely.
    """
    metrics_delta = get_metrics().export_delta()
    spans = drain_worker_events()
    if metrics_delta is None and not spans:
        return None
    return {"metrics": metrics_delta, "spans": spans}


def absorb_worker_delta(delta: Optional[dict]) -> None:
    """Fold a worker's piggybacked delta into this process."""
    if not delta:
        return
    get_metrics().merge(delta.get("metrics"))
    spans = delta.get("spans")
    if spans:
        tracer = current_tracer()
        if tracer is not None:
            tracer.extend(spans)
