"""The store's on-disk layout is a file format.

Stores outlive the code that wrote them (CI caches, long-lived
``REPRO_STORE_DIR`` trees), so the index schema, the blob path pattern
and the manifest path are pinned here byte-for-byte: a store laid out
by hand in this format must read back, and writes must produce it.
"""

import hashlib
import json
import sqlite3
from contextlib import closing

from repro.store import ArtifactStore, RunLedger, content_hash

#: ``PRAGMA table_info(artifacts)``: (name, type, notnull, default, pk).
INDEX_COLUMNS = [
    ("kind", "TEXT", 1, None, 1),
    ("key", "TEXT", 1, None, 2),
    ("filename", "TEXT", 1, None, 0),
    ("sha256", "TEXT", 1, None, 0),
    ("size", "INTEGER", 1, None, 0),
    ("created_at", "REAL", 1, None, 0),
    ("meta", "TEXT", 1, "'{}'", 0),
]


def _index(root):
    return closing(sqlite3.connect(root / "index.sqlite3"))


def test_writes_produce_the_layout(tmp_path):
    store = ArtifactStore(tmp_path)
    key = content_hash({"layout": 1})
    ref = store.put(
        "dse", key, {"y": [1, 2], "x": 1}, meta={"note": "hi"}
    )
    pickled = store.put("models", key, {"w": 1})
    assert ref.path == tmp_path / "objects" / "dse" / key[:2] / f"{key}.json"
    assert pickled.path == (
        tmp_path / "objects" / "models" / key[:2] / f"{key}.pkl"
    )
    data = ref.path.read_bytes()
    assert data == b'{"x": 1, "y": [1, 2]}'  # canonical JSON
    with _index(tmp_path) as conn:
        columns = [
            tuple(row[1:]) for row in
            conn.execute("PRAGMA table_info(artifacts)")
        ]
        rows = conn.execute(
            "SELECT kind, key, filename, sha256, size, meta "
            "FROM artifacts ORDER BY kind"
        ).fetchall()
    assert columns == INDEX_COLUMNS
    assert rows[0] == (
        "dse", key, f"objects/dse/{key[:2]}/{key}.json",
        hashlib.sha256(data).hexdigest(), len(data), '{"note": "hi"}',
    )
    assert rows[1][:3] == (
        "models", key, f"objects/models/{key[:2]}/{key}.pkl",
    )

    run_id = "20260101T000000Z-00000000"
    manifest = RunLedger(store).record(
        run_id, kind="run", label="layout", params={}, config_hash=key,
        stages=[{"name": "dse", "seconds": 0.5, "cache": "miss",
                 "artifacts": [{"kind": "dse", "key": key}]}],
    )
    text = (tmp_path / "runs" / f"{run_id}.json").read_text()
    assert text == json.dumps(manifest, sort_keys=True, indent=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "index.sqlite3", "objects", "runs",
    ]


def test_store_laid_out_by_hand_reads_back(tmp_path):
    key = content_hash({"layout": 2})
    data = b'{"x": 1}'
    blob = tmp_path / "objects" / "dse" / key[:2] / f"{key}.json"
    blob.parent.mkdir(parents=True)
    blob.write_bytes(data)
    columns = ", ".join(
        f"{name} {kind} NOT NULL"
        + (f" DEFAULT {default}" if default else "")
        for name, kind, _, default, _ in INDEX_COLUMNS
    )
    with _index(tmp_path) as conn, conn:
        conn.execute(
            f"CREATE TABLE artifacts ({columns}, PRIMARY KEY (kind, key))"
        )
        conn.execute(
            "INSERT INTO artifacts VALUES (?, ?, ?, ?, ?, ?, ?)",
            ("dse", key, f"objects/dse/{key[:2]}/{key}.json",
             hashlib.sha256(data).hexdigest(), len(data), 0.0, "{}"),
        )
    run_id = "20260101T000000Z-00000001"
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / f"{run_id}.json").write_text(
        json.dumps({"run_id": run_id, "kind": "run", "created_ts": 0.0,
                    "stages": [{"artifacts": [{"kind": "dse",
                                               "key": key}]}]})
    )

    store = ArtifactStore(tmp_path)
    assert store.get("dse", key) == {"x": 1}
    [ref] = store.entries("dse")
    assert (ref.path, ref.size) == (blob, len(data))
    ledger = RunLedger(store)
    assert [m["run_id"] for m in ledger.runs()] == [run_id]
    assert ledger.referenced_artifacts() == {("dse", key)}
