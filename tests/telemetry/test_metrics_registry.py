"""Metrics registry: thread safety, percentiles, deltas."""

import threading

import pytest

from repro.telemetry.metrics import RESERVOIR_CAPACITY, MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestThreadSafety:
    def test_hammered_counters_are_exact(self, registry):
        threads_n, per_thread = 20, 500

        def hammer():
            for _ in range(per_thread):
                registry.inc("hammer.count")
                registry.inc("hammer.weighted", 3)
                registry.observe("hammer.values", 1.0)

        threads = [
            threading.Thread(target=hammer) for _ in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = threads_n * per_thread
        snap = registry.snapshot()
        assert snap["counters"]["hammer.count"] == total
        assert snap["counters"]["hammer.weighted"] == 3 * total
        assert snap["histograms"]["hammer.values"]["count"] == total
        assert snap["histograms"]["hammer.values"]["sum"] == total


class TestHistograms:
    def test_percentiles_exact_under_capacity(self, registry):
        for value in range(1, 101):
            registry.observe("h", float(value))
        summary = registry.snapshot()["histograms"]["h"]
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0

    def test_reservoir_stays_bounded(self, registry):
        for value in range(5 * RESERVOIR_CAPACITY):
            registry.observe("big", float(value))
        hist = registry._histograms["big"]
        assert len(hist.samples) == RESERVOIR_CAPACITY
        summary = hist.summary()
        assert summary["count"] == 5 * RESERVOIR_CAPACITY
        assert summary["min"] == 0.0
        assert summary["max"] == float(5 * RESERVOIR_CAPACITY - 1)

    def test_reservoir_is_deterministic(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            for value in range(3 * RESERVOIR_CAPACITY):
                registry.observe("h", float(value))
        assert (
            a.snapshot()["histograms"] == b.snapshot()["histograms"]
        )

    def test_timer_observes_seconds(self, registry):
        with registry.timer("t"):
            pass
        summary = registry.snapshot()["histograms"]["t"]
        assert summary["count"] == 1
        assert summary["sum"] >= 0.0


class TestSnapshotsAndDeltas:
    def test_mark_diffs_counters(self, registry):
        registry.inc("a", 5)
        mark = registry.mark()
        registry.inc("a", 2)
        registry.inc("b")
        snap = registry.snapshot(since=mark)
        assert snap["counters"] == {"a": 2, "b": 1}

    def test_export_delta_drains(self, registry):
        registry.inc("x")
        registry.observe("y", 1.5)
        registry.set_gauge("z", 7)
        delta = registry.export_delta()
        assert delta["counters"] == {"x": 1}
        assert delta["histograms"]["y"]["count"] == 1
        assert registry.export_delta() is None
        assert registry.snapshot()["counters"] == {}

    def test_merge_accumulates(self, registry):
        other = MetricsRegistry()
        other.inc("x", 2)
        other.observe("y", 1.0)
        other.observe("y", 3.0)
        registry.inc("x")
        registry.observe("y", 5.0)
        registry.merge(other.export_delta())
        snap = registry.snapshot()
        assert snap["counters"]["x"] == 3
        assert snap["histograms"]["y"]["count"] == 3
        assert snap["histograms"]["y"]["sum"] == 9.0
        assert snap["histograms"]["y"]["min"] == 1.0
        assert snap["histograms"]["y"]["max"] == 5.0

    def test_merge_none_is_noop(self, registry):
        registry.merge(None)
        assert registry.snapshot()["counters"] == {}
