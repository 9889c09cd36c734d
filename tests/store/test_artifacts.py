"""ArtifactStore: codecs, robustness, concurrency, gc, env resolution."""

import json
import multiprocessing

import pytest

from repro.errors import StoreError, ValidationError
from repro.store import (
    ArtifactStore,
    content_hash,
    open_store,
    require_store,
)
from repro.synthesis.synthesizer import SynthesisReport

KEY = "a" * 64


class TestRoundTrip:
    def test_json_kinds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        doc = {"qor": [0.5, 1.0], "configs": [[0, 1], [2, 3]]}
        store.put("training-set", KEY, doc)
        assert store.get("training-set", KEY) == doc

    def test_synthesis_codec(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = SynthesisReport(
            area=12.5, delay=0.8, power=3.25, gate_count=42,
            cells={"NAND2": 21, "INV": 21},
        )
        store.put("synthesis", KEY, report)
        back = store.get("synthesis", KEY)
        assert back == report

    def test_library_codec(self, tmp_path, tiny_library):
        store = ArtifactStore(tmp_path)
        store.put("library", KEY, tiny_library)
        back = store.get("library", KEY)
        assert len(back) == len(tiny_library)
        assert back.summary() == tiny_library.summary()

    def test_get_missing_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("training-set", KEY) is None

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("dse", KEY, {"x": 1})
        store.delete("dse", KEY)
        assert store.get("dse", KEY) is None

    def test_meta_and_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("dse", KEY, {"x": 1}, meta={"note": "hi"})
        [entry] = store.entries("dse")
        assert entry.kind == "dse" and entry.key == KEY
        assert entry.size > 0 and entry.path.is_file()


class TestRobustness:
    """Corrupt/stale entries must be transparent misses, never crashes."""

    def _put(self, store):
        return store.put("training-set", KEY, {"qor": [1.0, 2.0]})

    def test_truncated_blob_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = self._put(store)
        ref.path.write_bytes(ref.path.read_bytes()[:5])
        assert store.get("training-set", KEY) is None
        # the poisoned entry was evicted: a fresh put works again
        self._put(store)
        assert store.get("training-set", KEY) == {"qor": [1.0, 2.0]}

    def test_corrupt_blob_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = self._put(store)
        ref.path.write_bytes(b"{not json at all")
        assert store.get("training-set", KEY) is None

    def test_stale_index_entry_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = self._put(store)
        ref.path.unlink()  # blob vanished; index row is now stale
        assert store.get("training-set", KEY) is None
        assert store.entries("training-set") == []

    def test_undecodable_payload_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = store.put("synthesis", KEY, SynthesisReport(
            area=1.0, delay=1.0, power=1.0, gate_count=1,
        ))
        # valid JSON, wrong schema: the read re-indexes the drifted
        # checksum, then decode raises -> miss, evicted
        ref.path.write_text(json.dumps({"bogus": True}))
        assert store.get("synthesis", KEY) is None
        assert store.entries("synthesis") == []
        assert store.get("synthesis", KEY) is None  # stays a clean miss

    def test_orphan_blob_is_adopted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = self._put(store)
        # simulate a writer that died between rename and index insert
        with store._connect() as conn:
            conn.execute("DELETE FROM artifacts")
        assert store.get("training-set", KEY) == {"qor": [1.0, 2.0]}
        assert store.entries("training-set") != []
        assert ref.path.is_file()


def _writer(root: str, worker: int, n: int) -> None:
    store = ArtifactStore(root)
    for i in range(n):
        key = content_hash({"item": i})
        store.put("dse", key, {"item": i, "writer": worker})


class TestConcurrency:
    def test_two_process_writes_never_tear(self, tmp_path):
        """Two processes hammering the same keys via atomic rename."""
        n = 25
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_writer, args=(str(tmp_path), w, n))
            for w in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = ArtifactStore(tmp_path)
        for i in range(n):
            doc = store.get("dse", content_hash({"item": i}))
            assert doc is not None and doc["item"] == i
            assert doc["writer"] in (0, 1)


class TestGc:
    def test_keeps_referenced_and_shared(self, tmp_path, tiny_library):
        store = ArtifactStore(tmp_path)
        store.put("dse", "1" * 64, {"x": 1})
        store.put("dse", "2" * 64, {"x": 2})
        store.put("library", "3" * 64, tiny_library)
        stats = store.gc({("dse", "1" * 64)})
        assert stats["removed"] == 1  # the unreferenced dse artifact
        assert store.get("dse", "1" * 64) == {"x": 1}
        assert store.get("dse", "2" * 64) is None
        assert store.get("library", "3" * 64) is not None  # shared kind

    def test_keep_kinds_override_drops_shared(self, tmp_path,
                                              tiny_library):
        store = ArtifactStore(tmp_path)
        store.put("library", "3" * 64, tiny_library)
        store.gc(set(), keep_kinds=())
        assert store.get("library", "3" * 64) is None


class TestEnvResolution:
    def test_default_dir_priority(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert str(open_store().root) == ".repro-store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "new"))
        assert open_store().root == tmp_path / "new"

    @pytest.mark.parametrize("env", ["REPRO_STORE_DIR"])
    @pytest.mark.parametrize("bad", ["", "   ", "\t"])
    def test_blank_env_values_rejected(self, monkeypatch, env, bad):
        monkeypatch.setenv(env, bad)
        with pytest.raises(ValidationError, match=env):
            open_store()

    def test_open_store_uses_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        assert open_store().root == tmp_path

    def test_require_store_missing_root(self, tmp_path):
        with pytest.raises(StoreError, match="no experiment store"):
            require_store(tmp_path / "absent")
