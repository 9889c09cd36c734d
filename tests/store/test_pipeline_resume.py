"""Resumable pipelines: warm-store runs skip every heavy stage.

With a warm store, a repeated ``AutoAx.run()`` (same seed/params)
performs **zero new synthesis calls** and **zero model refits**,
asserted via both the run ledger and the engine/fit counters.
"""

import numpy as np
import pytest

from repro.core.modeling import fit_count
from repro.core.pipeline import AutoAx, AutoAxConfig, PIPELINE_STAGES
from repro.store import ArtifactStore, RunLedger
from repro.store.artifacts import CODECS


@pytest.fixture()
def fast_config():
    return AutoAxConfig(
        n_train=16, n_test=8, engines=("K-Neighbors",),
        max_evaluations=300, seed=3,
    )


def _pipeline(sobel, tiny_library, small_images, config, store):
    return AutoAx(
        sobel, tiny_library, small_images[:1], config=config,
        store=store, run_kind="test", run_label="sobel-test",
        run_params={"command": "test"},
    )


class TestWarmRun:
    @pytest.fixture()
    def store(self, tmp_path):
        return ArtifactStore(tmp_path / "store")

    def test_cold_then_warm(self, sobel, tiny_library, small_images,
                            fast_config, store):
        cold = _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()
        assert set(cold.stage_cache) == set(PIPELINE_STAGES)
        assert set(cold.stage_cache.values()) == {"miss"}
        assert cold.engine_stats["synth_misses"] > 0
        assert cold.engine_stats["model_fits"] > 0

        fits_before = fit_count()
        warm = _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()

        # ledger: every heavy stage of the second run was a cache hit
        ledger = RunLedger(store)
        manifest = ledger.get(warm.run_id)
        assert [s["name"] for s in manifest["stages"]] == list(
            PIPELINE_STAGES
        )
        assert all(
            s["cache"] == "hit" for s in manifest["stages"]
        )
        # counters: zero new synthesis calls, zero model refits
        assert warm.engine_stats["synth_misses"] == 0
        assert warm.engine_stats["engine_built"] is False
        assert warm.engine_stats["model_fits"] == 0
        assert fit_count() == fits_before

        # and the result is bit-identical to the cold run
        assert warm.pseudo_pareto.configs == cold.pseudo_pareto.configs
        np.testing.assert_allclose(
            warm.final_points, cold.final_points
        )
        np.testing.assert_allclose(
            warm.final_points_3d, cold.final_points_3d
        )
        assert warm.final_configs == cold.final_configs

    def test_manifests_reproducible_config_hash(
        self, sobel, tiny_library, small_images, fast_config, store
    ):
        r1 = _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()
        r2 = _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()
        ledger = RunLedger(store)
        m1, m2 = ledger.get(r1.run_id), ledger.get(r2.run_id)
        assert m1["config_hash"] == m2["config_hash"]
        assert m1["params"] == {"command": "test"}

    def test_changed_seed_misses(self, sobel, tiny_library,
                                 small_images, fast_config, store):
        _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()
        other = AutoAxConfig(
            n_train=16, n_test=8, engines=("K-Neighbors",),
            max_evaluations=300, seed=4,
        )
        rerun = _pipeline(
            sobel, tiny_library, small_images, other, store
        ).run()
        assert rerun.stage_cache["preprocessing"] == "miss"

    def test_workers_do_not_fragment_cache(self, sobel, tiny_library,
                                           small_images, fast_config,
                                           store, monkeypatch):
        """The worker count is excluded from cache identity."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()
        monkeypatch.setenv("REPRO_WORKERS", "1")
        warm = _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()
        assert set(warm.stage_cache.values()) == {"hit"}

    def test_partial_resume_after_corruption(
        self, sobel, tiny_library, small_images, fast_config, store
    ):
        """Losing one stage artifact recomputes only from that stage."""
        cold = _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()
        ledger = RunLedger(store)
        manifest = ledger.get(cold.run_id)
        final_stage = manifest["stages"][-1]
        assert final_stage["name"] == "final_analysis"
        [artifact] = final_stage["artifacts"]
        # corrupt the final-analysis blob through the backend, so the
        # same step reaches a served store
        kind, key = artifact["kind"], artifact["key"]
        assert key in store.keys(kind)
        store.backend.put_bytes(
            kind, key, b"\x00 truncated", ext=CODECS[kind].ext
        )
        resumed = _pipeline(
            sobel, tiny_library, small_images, fast_config, store
        ).run()
        assert resumed.stage_cache["preprocessing"] == "hit"
        assert resumed.stage_cache["pseudo_pareto"] == "hit"
        assert resumed.stage_cache["final_analysis"] == "miss"
        np.testing.assert_allclose(
            resumed.final_points, cold.final_points
        )

    def test_store_off_records_off(self, sobel, tiny_library,
                                   small_images, fast_config):
        result = AutoAx(
            sobel, tiny_library, small_images[:1], config=fast_config
        ).run()
        assert set(result.stage_cache.values()) == {"off"}
        assert result.run_id is None
