"""Store-backed synthesis cache: engine plumbing and cross-process reuse."""

from repro.accelerators.sobel import SobelEdgeDetector
from repro.core.engine import EvaluationEngine
from repro.store import (
    ArtifactStore,
    MemorySynthCache,
    StoreSynthCache,
    accelerator_fingerprint,
    content_hash,
    synth_cache_for,
)


def _engine(small_images, cache=None):
    return EvaluationEngine(
        SobelEdgeDetector(), small_images[:1], synth_cache=cache
    )


def _cache(tmp_path):
    namespace = content_hash(
        accelerator_fingerprint(SobelEdgeDetector())
    )
    return StoreSynthCache(ArtifactStore(tmp_path), namespace)


class TestEngineSynthCache:
    def test_second_engine_skips_synthesis(self, tmp_path, sobel_space,
                                           small_images):
        config = sobel_space.random_configuration(rng=0)
        records = sobel_space.records(config)

        first = _engine(small_images, _cache(tmp_path))
        report = first.hardware(records)
        assert first.synth_misses == 1
        assert first.synth_store_hits == 0

        # a *fresh* engine (fresh memo) resolves from the store
        second = _engine(small_images, _cache(tmp_path))
        assert second.hardware(records) == report
        assert second.synth_misses == 0
        assert second.synth_store_hits == 1
        # and its own memo answers from then on
        second.hardware(records)
        assert second.synth_hits == 1

    def test_no_cache_unchanged(self, sobel_space, small_images):
        config = sobel_space.random_configuration(rng=0)
        engine = _engine(small_images)
        engine.hardware(sobel_space.records(config))
        assert engine.synth_misses == 1
        assert engine.synth_store_hits == 0

    def test_memory_cache_shares_between_engines(self, sobel_space,
                                                 small_images):
        shared = MemorySynthCache()
        config = sobel_space.random_configuration(rng=0)
        records = sobel_space.records(config)
        _engine(small_images, shared).hardware(records)
        assert len(shared) == 1
        other = _engine(small_images, shared)
        other.hardware(records)
        assert other.synth_misses == 0

    def test_namespace_scopes_keys(self, tmp_path, sobel_space,
                                   small_images):
        config = sobel_space.random_configuration(rng=0)
        records = sobel_space.records(config)
        _engine(small_images, _cache(tmp_path)).hardware(records)
        foreign = StoreSynthCache(ArtifactStore(tmp_path), "other-acc")
        assert foreign.get(
            EvaluationEngine._memo_key(records)
        ) is None

    def test_synth_cache_for_none_store(self):
        assert synth_cache_for(None, "abc") is None


class TestParallelEvaluateWithStore:
    def test_evaluate_many_workers_with_store_cache(
        self, tmp_path, sobel_space, small_images, monkeypatch
    ):
        """Fork workers write reports into the store without tearing."""
        engine = _engine(small_images, _cache(tmp_path))
        configs = sobel_space.random_configurations(6, rng=1)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = engine.evaluate_many(sobel_space, configs)
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial_engine = _engine(small_images, _cache(tmp_path))
        serial = serial_engine.evaluate_many(sobel_space, configs)
        assert parallel == serial
        # the second engine answered synthesis from the store
        assert serial_engine.synth_misses == 0
