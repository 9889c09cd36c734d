"""StoreBackend protocol: equivalence, fork safety, URIs.

The two backends (local sqlite, remote HTTP) must be observationally
equivalent: any interleaving of put/get/delete/iter — including
corrupting a blob on disk mid-sequence — yields the same visible
results no matter which backend holds the bytes.
"""

import multiprocessing
import random

import pytest

from repro.errors import ValidationError
from repro.store import ArtifactStore, SqliteBackend, parse_store_uri
from repro.store.remote import RemoteBackend

KEY = "a" * 64
KINDS = ("training-set", "dse", "models")


def make_remote(tmp_path):
    """A RemoteBackend speaking to a ``repro serve`` thread.

    Returns ``(backend, server, server_store_root)`` — the root lets
    corruption tests damage blobs behind the server's back.
    """
    from repro.serve import (
        ApiKeyRegistry,
        Coordinator,
        ServeApp,
        ServerThread,
    )

    root = tmp_path / "served-store"
    app = ServeApp(
        Coordinator(store=ArtifactStore(root)), ApiKeyRegistry(None)
    )
    server = ServerThread(app).start()
    return RemoteBackend(server.base_url), server, root


@pytest.fixture()
def remote(tmp_path):
    backend, server, root = make_remote(tmp_path)
    yield backend, root
    server.stop()


# -- observational equivalence ----------------------------------------------


def run_sequence(backend, seed, steps=120):
    """One deterministic randomized op sequence; returns observations."""
    rng = random.Random(seed)
    keys = [format(i, "x") * 16 for i in range(8)]
    trace = []
    for _ in range(steps):
        op = rng.choice(("put", "get", "get", "delete", "iter"))
        kind = rng.choice(KINDS)
        key = rng.choice(keys)
        if op == "put":
            data = f"{kind}/{key}#{rng.randrange(4)}".encode()
            ref = backend.put_bytes(kind, key, data, ext="json")
            trace.append(("put", ref.kind, ref.key, ref.sha256,
                          ref.size))
        elif op == "get":
            trace.append(("get", kind, key,
                          backend.get_bytes(kind, key)))
        elif op == "delete":
            backend.delete(kind, key)
            trace.append(("delete", kind, key))
        else:
            trace.append(("iter", [
                (r.kind, r.key, r.sha256, r.size)
                for r in backend.iter_refs()
            ]))
    return trace


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backends_observationally_equivalent(tmp_path, remote, seed):
    remote_backend, _ = remote
    backends = [SqliteBackend(tmp_path / "plain"), remote_backend]
    traces = [run_sequence(b, seed) for b in backends]
    assert traces[0] == traces[1]


def _blob_paths(root, kind, key):
    return list(root.rglob(f"{key}.json"))


def test_corrupt_blob_heals_identically(tmp_path, remote):
    """Disk corruption mid-sequence self-heals the same way everywhere.

    At the byte level changed bytes are indistinguishable from a raced
    valid write, so every backend adopts and re-serves them; the codec
    layer above (:class:`ArtifactStore`) is where garbage turns into a
    transparent miss.  Both halves must hold for both backends.
    """
    remote_backend, served_root = remote
    cases = [
        (SqliteBackend(tmp_path / "plain"), tmp_path / "plain"),
        (remote_backend, served_root),
    ]
    for backend, root in cases:
        backend.put_bytes("dse", KEY, b'{"x": 1}')
        [path] = _blob_paths(root, "dse", KEY)
        path.write_bytes(b'{"x": "raced"}')
        # byte layer: adopted, re-indexed, served consistently
        assert backend.get_bytes("dse", KEY) == b'{"x": "raced"}'
        assert backend.get_bytes("dse", KEY) == b'{"x": "raced"}'

        store = ArtifactStore(backend=backend)
        path.write_bytes(b"garbage")  # undecodable corruption
        assert store.get("dse", KEY) is None  # evicted, not a crash
        store.put("dse", KEY, {"x": 2})
        assert store.get("dse", KEY) == {"x": 2}


def test_gc_equivalent_across_backends(tmp_path, remote):
    remote_backend, _ = remote
    backends = [SqliteBackend(tmp_path / "plain"), remote_backend]
    stats = []
    for backend in backends:
        for i in range(6):
            backend.put_bytes("dse", format(i, "x") * 16,
                              b"x" * (i + 1))
        kept = {("dse", format(i, "x") * 16) for i in range(2)}
        dry = backend.gc(kept, set(), dry_run=True)
        assert dry["dry_run"] is True
        assert len(backend.iter_refs()) == 6  # nothing deleted
        real = backend.gc(kept, set())
        assert len(backend.iter_refs()) == 2
        dry.pop("dry_run"), real.pop("dry_run")
        assert dry == real
        stats.append(real)
    assert stats[0] == stats[1]


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

    def test_http_scheme(self):
        backend = parse_store_uri("http://127.0.0.1:9999")
        assert isinstance(backend, RemoteBackend)
        assert backend.uri == "http://127.0.0.1:9999"

    @pytest.mark.parametrize("uri", ["sharded:/x", "s3://b/x",
                                     "sqlit:/x"])
    def test_unknown_scheme_rejected(self, uri):
        with pytest.raises(ValidationError, match="unknown scheme"):
            parse_store_uri(uri)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_store_uri("")

    def test_uri_round_trips(self, tmp_path):
        for uri in (f"sqlite:{tmp_path / 'a'}",
                    "http://localhost:8035"):
            assert parse_store_uri(uri).uri == uri

    def test_open_store_accepts_uri(self, tmp_path):
        from repro.store import open_store

        store = open_store(f"sqlite:{tmp_path}")
        store.put("dse", KEY, {"x": 1})
        assert open_store(store) is store
        assert open_store(store.uri).get("dse", KEY) == {"x": 1}
