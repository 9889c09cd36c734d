"""Batched blob writes: ``ArtifactStore.put_many``.

The library build stores each chunk's component blobs with one
``put_many``: the store still writes every blob through a temp file,
fsync and atomic rename, but indexes the whole chunk in a single
transaction.
"""

import pytest

from repro.library.generation import GenerationPlan
from repro.library.pipeline import COMPONENT_KIND, build_library
from repro.store import ArtifactStore
from repro.telemetry import get_metrics


def _items(n):
    return [
        (format(i, "x") * 64, {"item": i}, {"name": f"c{i}"})
        for i in range(n)
    ]


def _count_commits(store, action):
    statements = []
    store._connect().set_trace_callback(statements.append)
    try:
        action()
    finally:
        store._connect().set_trace_callback(None)
    return sum(s.strip().upper() == "COMMIT" for s in statements)


def test_chunk_of_puts_is_one_commit(tmp_path):
    store = ArtifactStore(tmp_path)
    items = _items(8)
    assert _count_commits(
        store, lambda: store.put_many("dse", items)
    ) == 1
    for key, obj, _ in items:
        assert store.get("dse", key) == obj
    assert len(store.entries("dse")) == len(items)


def test_single_puts_commit_each(tmp_path):
    store = ArtifactStore(tmp_path)

    def put_each():
        for key, obj, meta in _items(3):
            store.put("dse", key, obj, meta=meta)

    assert _count_commits(store, put_each) == 3


def test_crash_before_commit_leaves_adoptable_orphans(tmp_path,
                                                      monkeypatch):
    store = ArtifactStore(tmp_path)
    items = _items(4)

    def crash(self, entries):
        raise RuntimeError("killed between the renames and the commit")

    with monkeypatch.context() as patch:
        patch.setattr(ArtifactStore, "_index_many", crash)
        with pytest.raises(RuntimeError, match="killed"):
            store.put_many("dse", items)
    blobs = list((tmp_path / "objects" / "dse").rglob("*.json"))
    assert len(blobs) == len(items)
    assert store.entries("dse") == []
    for key, obj, _ in items:
        assert store.get("dse", key) == obj  # orphan adopted on read
    assert len(store.entries("dse")) == len(items)


def test_library_build_counts_each_component_put(tmp_path, monkeypatch):
    plan = GenerationPlan(
        {("add", 8): 5, ("sub", 12): 4}, seed=0, sample_size=1 << 10
    )
    store = ArtifactStore(tmp_path)
    metrics = get_metrics()
    puts = metrics.counter("store.puts")
    written = metrics.counter("store.bytes_written")
    monkeypatch.setenv("REPRO_WORKERS", "1")
    build_library(plan, store=store, record_run=False, chunk_size=4)
    entries = store.entries(COMPONENT_KIND)
    assert len(entries) == plan.total()
    assert metrics.counter("store.puts") - puts == plan.total()
    assert metrics.counter("store.bytes_written") - written == sum(
        ref.size for ref in entries
    )
