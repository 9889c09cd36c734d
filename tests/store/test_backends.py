"""ArtifactStore bytes: map semantics, self-healing reads, gc, fork
safety, URIs.

Any interleaving of put/get/delete/entries — including corrupting a
blob on disk mid-sequence — must leave the store observationally a
``(kind, key) -> object`` map.
"""

import hashlib
import multiprocessing
import random
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.store import ArtifactStore, open_store

KEY = "a" * 64
KINDS = ("training-set", "dse", "models")


# -- map semantics -----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backend_behaves_like_a_map(tmp_path, seed):
    """A randomized op sequence matches an in-memory dict model."""
    store = ArtifactStore(tmp_path)
    model = {}  # (kind, key) -> (object, blob size)
    rng = random.Random(seed)
    keys = [format(i, "x") * 16 for i in range(8)]
    for _ in range(120):
        op = rng.choice(("put", "get", "get", "delete", "iter"))
        kind = rng.choice(KINDS)
        key = rng.choice(keys)
        if op == "put":
            obj = f"{kind}/{key}#{rng.randrange(4)}"
            ref = store.put(kind, key, obj)
            data = ref.path.read_bytes()
            model[kind, key] = (obj, len(data))
            assert (ref.kind, ref.key, ref.size) == (kind, key, len(data))
            assert ref.sha256 == hashlib.sha256(data).hexdigest()
        elif op == "get":
            expected = model.get((kind, key), (None, 0))[0]
            assert store.get(kind, key) == expected
        elif op == "delete":
            store.delete(kind, key)
            model.pop((kind, key), None)
        else:
            assert [
                (r.kind, r.key, r.size) for r in store.entries()
            ] == [
                (k, key, model[k, key][1]) for k, key in sorted(model)
            ]


def test_corrupt_blob_heals_identically(tmp_path):
    """Disk corruption: valid bytes are adopted, garbage is evicted.

    Changed bytes that still decode are indistinguishable from a raced
    valid write, so the store re-indexes and re-serves them; bytes the
    codec cannot decode turn into a transparent miss.
    """
    store = ArtifactStore(tmp_path)
    ref = store.put("dse", KEY, {"x": 1})
    ref.path.write_bytes(b'{"x": "raced"}')
    # adopted, re-indexed, served consistently
    assert store.get("dse", KEY) == {"x": "raced"}
    assert store.get("dse", KEY) == {"x": "raced"}
    [ref] = store.entries("dse")
    assert ref.sha256 == hashlib.sha256(b'{"x": "raced"}').hexdigest()

    ref.path.write_bytes(b"garbage")  # undecodable corruption
    assert store.get("dse", KEY) is None  # evicted, not a crash
    assert store.entries("dse") == []
    store.put("dse", KEY, {"x": 2})
    assert store.get("dse", KEY) == {"x": 2}


def test_gc_dry_run_matches_real_pass(tmp_path):
    store = ArtifactStore(tmp_path)
    sizes = {}
    for i in range(6):
        key = format(i, "x") * 16
        sizes[key] = store.put("dse", key, "x" * (i + 1)).size
    kept = {("dse", format(i, "x") * 16) for i in range(2)}
    dry = store.gc(kept, keep_kinds=(), dry_run=True)
    assert dry["dry_run"] is True
    assert len(store.entries()) == 6  # nothing deleted
    real = store.gc(kept, keep_kinds=())
    assert real["dry_run"] is False
    assert [r.key for r in store.entries()] == sorted(
        key for _, key in kept
    )
    dry.pop("dry_run"), real.pop("dry_run")
    assert dry == real
    freed = sum(
        size for key, size in sizes.items() if ("dse", key) not in kept
    )
    assert real["removed"] == 4
    assert real["freed_bytes"] == freed
    assert real["by_kind"] == {"dse": {"count": 4, "bytes": freed}}


def test_gc_sweeps_orphans_but_not_in_flight_writes(tmp_path):
    store = ArtifactStore(tmp_path)
    ref = store.put("dse", KEY, {"x": 1})
    orphan = ref.path.with_name("b" * 64 + ".json")
    orphan.write_bytes(b"{}")
    in_flight = ref.path.with_name(".tmp-abc.json")
    in_flight.write_bytes(b"{")
    stats = store.gc({("dse", KEY)})
    assert (stats["removed"], stats["freed_bytes"]) == (1, 2)
    assert not orphan.exists()
    assert in_flight.exists() and ref.path.exists()


# -- fork safety -------------------------------------------------------------


def _child_reads(store, queue):
    try:
        queue.put(("ok", store.get("dse", KEY)))
    except Exception as exc:  # pragma: no cover - the failure mode
        queue.put(("err", repr(exc)))


def test_fork_after_read_gets_fresh_connection(tmp_path):
    """A child forked after a read must not share the parent's handle."""
    store = ArtifactStore(tmp_path)
    store.put("dse", KEY, {"x": 1})
    assert store.get("dse", KEY) == {"x": 1}  # caches conn
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child_reads, args=(store, queue))
    child.start()
    tag, value = queue.get(timeout=30)
    child.join(timeout=30)
    assert (tag, value) == ("ok", {"x": 1})
    assert child.exitcode == 0
    # and the parent's cached connection still works after the fork
    assert store.get("dse", KEY) == {"x": 1}
    store.put("dse", "b" * 64, [])
    assert store.get("dse", "b" * 64) == []


# -- store URIs --------------------------------------------------------------


class TestStoreUri:
    def test_bare_path_is_sqlite(self, tmp_path):
        store = open_store(str(tmp_path))
        assert isinstance(store, ArtifactStore)
        assert store.root == tmp_path

    def test_sqlite_scheme(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path}")
        assert isinstance(store, ArtifactStore)
        assert store.root == tmp_path

    def test_path_is_never_reparsed(self):
        for odd in ("http://x", "sqlite:", "sharded:/x"):
            assert open_store(Path(odd)).root == Path(odd)

    def test_http_rejected_naming_accepted_forms(self):
        for uri in ("http://127.0.0.1:9999", "https://store.example/x"):
            with pytest.raises(ValidationError) as info:
                open_store(uri)
            message = str(info.value)
            assert "unknown scheme" in message
            assert "sqlite:PATH" in message and "bare path" in message

    @pytest.mark.parametrize("uri", ["sharded:/x", "s3://b/x",
                                     "sqlit:/x"])
    def test_unknown_scheme_rejected(self, uri):
        with pytest.raises(ValidationError, match="unknown scheme"):
            open_store(uri)

    def test_empty_rejected(self):
        for uri in ("", "   "):
            with pytest.raises(ValidationError, match="non-empty"):
                open_store(uri)
        with pytest.raises(ValidationError, match="missing a path"):
            open_store("sqlite:")

    def test_uri_round_trips(self, tmp_path):
        uri = f"sqlite:{tmp_path / 'a'}"
        assert open_store(uri).uri == uri

    def test_open_store_accepts_uri(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path}")
        store.put("dse", KEY, {"x": 1})
        assert open_store(store) is store
        assert open_store(store.uri).get("dse", KEY) == {"x": 1}
