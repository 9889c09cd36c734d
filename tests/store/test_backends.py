"""SqliteBackend: dict semantics, self-healing reads, gc, fork safety, URIs.

Any interleaving of put/get/delete/iter — including corrupting a blob
on disk mid-sequence — must leave the backend observationally a
``(kind, key) -> bytes`` map.
"""

import hashlib
import multiprocessing
import random

import pytest

from repro.errors import ValidationError
from repro.store import ArtifactStore, SqliteBackend, parse_store_uri

KEY = "a" * 64
KINDS = ("training-set", "dse", "models")


# -- dict semantics ----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backend_behaves_like_a_map(tmp_path, seed):
    """A randomized op sequence matches an in-memory dict model."""
    backend = SqliteBackend(tmp_path)
    model = {}
    rng = random.Random(seed)
    keys = [format(i, "x") * 16 for i in range(8)]
    for _ in range(120):
        op = rng.choice(("put", "get", "get", "delete", "iter"))
        kind = rng.choice(KINDS)
        key = rng.choice(keys)
        if op == "put":
            data = f"{kind}/{key}#{rng.randrange(4)}".encode()
            ref = backend.put_bytes(kind, key, data, ext="json")
            model[kind, key] = data
            assert (ref.kind, ref.key, ref.size) == (kind, key, len(data))
            assert ref.sha256 == hashlib.sha256(data).hexdigest()
        elif op == "get":
            assert backend.get_bytes(kind, key) == model.get((kind, key))
        elif op == "delete":
            backend.delete(kind, key)
            model.pop((kind, key), None)
        else:
            assert [
                (r.kind, r.key, r.size) for r in backend.iter_refs()
            ] == [
                (k, key, len(model[k, key])) for k, key in sorted(model)
            ]


def test_corrupt_blob_heals_identically(tmp_path):
    """Disk corruption: adopted at the byte layer, evicted by the codec.

    At the byte level changed bytes are indistinguishable from a raced
    valid write, so the backend adopts and re-serves them; the codec
    layer above (:class:`ArtifactStore`) is where garbage turns into a
    transparent miss.
    """
    backend = SqliteBackend(tmp_path)
    backend.put_bytes("dse", KEY, b'{"x": 1}')
    [path] = list(tmp_path.rglob(f"{KEY}.json"))
    path.write_bytes(b'{"x": "raced"}')
    # byte layer: adopted, re-indexed, served consistently
    assert backend.get_bytes("dse", KEY) == b'{"x": "raced"}'
    assert backend.get_bytes("dse", KEY) == b'{"x": "raced"}'
    [ref] = backend.iter_refs("dse")
    assert ref.sha256 == hashlib.sha256(b'{"x": "raced"}').hexdigest()

    store = ArtifactStore(backend)
    path.write_bytes(b"garbage")  # undecodable corruption
    assert store.get("dse", KEY) is None  # evicted, not a crash
    assert backend.iter_refs("dse") == []
    store.put("dse", KEY, {"x": 2})
    assert store.get("dse", KEY) == {"x": 2}


def test_gc_dry_run_matches_real_pass(tmp_path):
    backend = SqliteBackend(tmp_path)
    for i in range(6):
        backend.put_bytes("dse", format(i, "x") * 16, b"x" * (i + 1))
    kept = {("dse", format(i, "x") * 16) for i in range(2)}
    dry = backend.gc(kept, set(), dry_run=True)
    assert dry["dry_run"] is True
    assert len(backend.iter_refs()) == 6  # nothing deleted
    real = backend.gc(kept, set())
    assert real["dry_run"] is False
    assert [r.key for r in backend.iter_refs()] == sorted(
        key for _, key in kept
    )
    dry.pop("dry_run"), real.pop("dry_run")
    assert dry == real
    assert real["removed"] == 4
    assert real["freed_bytes"] == 3 + 4 + 5 + 6
    assert real["by_kind"] == {"dse": {"count": 4, "bytes": 18}}


# -- fork safety -------------------------------------------------------------


def _child_reads(backend, queue):
    try:
        queue.put(("ok", backend.get_bytes("dse", KEY)))
    except Exception as exc:  # pragma: no cover - the failure mode
        queue.put(("err", repr(exc)))


def test_fork_after_read_gets_fresh_connection(tmp_path):
    """A child forked after a read must not share the parent's handle."""
    backend = SqliteBackend(tmp_path)
    backend.put_bytes("dse", KEY, b'{"x": 1}')
    assert backend.get_bytes("dse", KEY) == b'{"x": 1}'  # caches conn
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child_reads, args=(backend, queue))
    child.start()
    tag, value = queue.get(timeout=30)
    child.join(timeout=30)
    assert (tag, value) == ("ok", b'{"x": 1}')
    assert child.exitcode == 0
    # and the parent's cached connection still works after the fork
    assert backend.get_bytes("dse", KEY) == b'{"x": 1}'
    backend.put_bytes("dse", "b" * 64, b"[]")
    assert backend.get_bytes("dse", "b" * 64) == b"[]"


# -- store URIs --------------------------------------------------------------


class TestStoreUri:
    def test_bare_path_is_sqlite(self, tmp_path):
        backend = parse_store_uri(str(tmp_path))
        assert isinstance(backend, SqliteBackend)
        assert backend.root == tmp_path

    def test_sqlite_scheme(self, tmp_path):
        backend = parse_store_uri(f"sqlite:{tmp_path}")
        assert isinstance(backend, SqliteBackend)
        assert backend.root == tmp_path

    def test_http_rejected_naming_accepted_forms(self):
        for uri in ("http://127.0.0.1:9999", "https://store.example/x"):
            with pytest.raises(ValidationError) as info:
                parse_store_uri(uri)
            message = str(info.value)
            assert "unknown scheme" in message
            assert "sqlite:PATH" in message and "bare path" in message

    @pytest.mark.parametrize("uri", ["sharded:/x", "s3://b/x",
                                     "sqlit:/x"])
    def test_unknown_scheme_rejected(self, uri):
        with pytest.raises(ValidationError, match="unknown scheme"):
            parse_store_uri(uri)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_store_uri("")

    def test_uri_round_trips(self, tmp_path):
        uri = f"sqlite:{tmp_path / 'a'}"
        assert parse_store_uri(uri).uri == uri

    def test_open_store_accepts_uri(self, tmp_path):
        from repro.store import open_store

        store = open_store(f"sqlite:{tmp_path}")
        store.put("dse", KEY, {"x": 1})
        assert open_store(store) is store
        assert open_store(store.uri).get("dse", KEY) == {"x": 1}
