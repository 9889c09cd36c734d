"""Stores written before the search work queue was retired stay usable.

Older stores may hold the artifacts of store-backed distributed search:
``work-queue``/``work-item``/``work-lease``/``work-result`` JSON
documents and a zlib-compressed pickle of kind ``search-context``
(``.pklz`` blobs).  No manifest references them and none is a shared
kind, so ``repro runs gc`` sweeps them, while the runs recorded next to
them keep decoding and listing exactly as before.
"""

import json
import pickle
import zlib

import numpy as np

from repro.cli import main
from repro.store import ArtifactStore, RunLedger, content_hash

QUEUE_KINDS = ("work-queue", "work-item", "work-lease", "work-result")


def _fill(root):
    """A store with one recorded run plus leftover queue artifacts."""
    store = ArtifactStore(root)
    run_artifacts = {
        "dse": {"configs": [[0, 1], [2, 3]], "points": [[0.9, 10.0]]},
        "training-set": {"qor": [0.5, 0.7], "area": [3.0, 4.0]},
        "models": {"weights": np.arange(6.0).reshape(2, 3)},
    }
    refs = []
    for kind, obj in run_artifacts.items():
        ref = store.put(kind, content_hash({"kind": kind}), obj)
        refs.append({"kind": ref.kind, "key": ref.key})
    RunLedger(store).record(
        "20260101T000000Z-00000000", kind="search", label="search:sobel",
        params={"command": "search"}, config_hash=content_hash("cfg"),
        stages=[{"name": "round_0", "seconds": 0.5, "cache": "miss",
                 "artifacts": refs}],
        seed=0,
    )
    queue_id = "search:sobel@20260101T000000Z-00000000"
    for kind in QUEUE_KINDS:
        store.put(kind, content_hash({kind: queue_id}),
                  {"queue": queue_id, "status": "open"})
    context = zlib.compress(pickle.dumps(("space", "models")), 6)
    store.backend.put_bytes(
        "search-context", content_hash({"search-context": queue_id}),
        context, ext="pklz",
    )
    return store, run_artifacts


def _cli_json(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_gc_sweeps_queue_leftovers(tmp_path, capsys):
    root = tmp_path / "store"
    store, run_artifacts = _fill(root)
    listed = _cli_json(capsys, "runs", "list", "--store-dir", str(root),
                       "--json")
    assert [m["run_id"] for m in listed["runs"]] == [
        "20260101T000000Z-00000000"
    ]

    doc = _cli_json(capsys, "runs", "gc", "--store-dir", str(root),
                    "--json")
    gone = {*QUEUE_KINDS, "search-context"}
    assert set(doc["gc"]["by_kind"]) == gone
    assert doc["gc"]["removed"] == len(gone)
    assert doc["gc"]["kept"] == len(run_artifacts)
    assert not any(ref.kind in gone for ref in store.entries())
    assert not list((root / "objects").rglob("*.pklz"))

    for kind, obj in run_artifacts.items():
        got = store.get(kind, content_hash({"kind": kind}))
        if kind == "models":
            np.testing.assert_array_equal(got["weights"], obj["weights"])
        else:
            assert got == obj
    assert _cli_json(capsys, "runs", "list", "--store-dir", str(root),
                     "--json") == listed
