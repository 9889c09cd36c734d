"""Engine-level contract of the configuration-axis batched path.

The property layer (``tests/accelerators/test_property_config_batch``)
pins ``GraphProgram.execute_batch`` against random graphs; this module
pins everything the engine stacks on top of it:

* ``evaluate_many`` takes one route for every space — the pool with
  ``workers >= 2``, the per-configuration loop otherwise, never the
  batched pass — and every route is byte-identical to the direct
  per-configuration ``evaluate`` loop;
* config-axis tiling never changes a byte of the output;
* ``BatchedSsim.batch`` rows are bit-identical to per-slice calls;
* the lazy space caches (stacked LUTs, impl memo) behave across reuse
  and pickling, and a pickled engine (worker shipping) evaluates
  identically.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core import runtime as rt
from repro.core.engine import EvaluationEngine
from repro.core.runtime import get_runtime, reset_runtime
from repro.imaging.metrics import BatchedSsim
from repro.telemetry import get_metrics


@pytest.fixture()
def fresh_runtime():
    reset_runtime()
    yield get_runtime()
    reset_runtime()


def some_configs(space, n=6, rng=17):
    configs = space.random_configurations(n, rng=rng)
    # Duplicates ride along: evaluate_many analyses them once but must
    # still report them at their original positions.
    return list(configs) + list(configs[:2])


def as_bytes(results):
    """The raw float64 bytes of every result field, in order."""
    return np.array(
        [(r.qor, r.area, r.delay, r.power) for r in results]
    ).tobytes()


def direct(engine, space, configs):
    """The reference every route must reproduce byte for byte."""
    return as_bytes([engine.evaluate(space, c) for c in configs])


class TestEvaluateManyModes:
    def test_classic_vectorized_and_pool_identical(
        self, sobel, sobel_space, fixed_gf, gf_space, small_images,
        monkeypatch, fresh_runtime,
    ):
        """The selection rule: any space takes the pool route with
        ``workers=2`` and the loop with ``workers=1``; a LUT-capable
        space no longer reaches the batched pass; all match the direct
        reference."""
        metrics = get_metrics()
        routed = []
        parallel = EvaluationEngine._evaluate_parallel

        def spy(engine, *args, **kwargs):
            routed.append(args[0])
            return parallel(engine, *args, **kwargs)

        monkeypatch.setattr(EvaluationEngine, "_evaluate_parallel", spy)
        # Whatever reaches the runtime really fans out, even on one core.
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)

        configs = some_configs(sobel_space)
        reference = direct(
            EvaluationEngine(sobel, small_images), sobel_space, configs
        )
        before = metrics.counter("engine.config_batches")
        for workers in (1, 2):
            results = EvaluationEngine(sobel, small_images).evaluate_many(
                sobel_space, configs, workers=workers
            )
            assert as_bytes(results) == reference
        assert metrics.counter("engine.config_batches") == before
        assert routed == [sobel_space]
        assert fresh_runtime.stats["parallel_batches"] == 1

        configs = some_configs(gf_space, n=4)
        reference = direct(
            EvaluationEngine(fixed_gf, small_images), gf_space, configs
        )
        before = metrics.counter("engine.config_batches")
        pooled = EvaluationEngine(fixed_gf, small_images).evaluate_many(
            gf_space, configs, workers=2
        )
        assert routed == [sobel_space, gf_space]
        assert fresh_runtime.stats["parallel_batches"] == 2
        assert metrics.counter("engine.config_batches") == before
        assert as_bytes(pooled) == reference

    def test_duplicates_share_one_analysis(
        self, sobel_space, sobel_evaluator
    ):
        configs = some_configs(sobel_space)
        results = sobel_evaluator.evaluate_many(sobel_space, configs)
        assert len(results) == len(configs)
        for i, config in enumerate(configs):
            assert results[i] == results[configs.index(config)]

    def test_forced_vectorized_matches_serial(
        self, sobel_space, sobel_evaluator
    ):
        """The batched pass itself, called directly, is bit-identical
        to ``evaluate``."""
        configs = list(sobel_space.random_configurations(5, rng=29))
        tables = sobel_evaluator._batch_tables(sobel_space, configs)
        assert tables is not None
        vectorized = sobel_evaluator._evaluate_vectorized(
            sobel_space, configs, tables
        )
        serial = [
            sobel_evaluator.evaluate(sobel_space, c) for c in configs
        ]
        assert vectorized == serial


def tile_budget(engine, tile):
    """A ``_CONFIG_TILE_BUDGET_BYTES`` that yields ``tile`` configs."""
    per_config = (
        int(np.prod(engine._run_shape)) * 8 * engine_mod._ARRAYS_PER_CONFIG
    )
    return tile * per_config


class TestConfigTiling:
    def test_any_tile_size_is_identity(
        self, sobel_space, sobel_evaluator, monkeypatch
    ):
        # The pass is called directly: evaluate_many no longer routes
        # to it.
        configs = some_configs(sobel_space, n=7, rng=41)
        tables = sobel_evaluator._batch_tables(sobel_space, configs)
        baseline = sobel_evaluator.qor_batch(tables, len(configs))
        for tile in (1, 3, 64):
            monkeypatch.setattr(
                engine_mod, "_CONFIG_TILE_BUDGET_BYTES",
                tile_budget(sobel_evaluator, tile),
            )
            scores = sobel_evaluator.qor_batch(tables, len(configs))
            assert scores.tobytes() == baseline.tobytes()

    def test_tile_clamped_to_batch(self, sobel_evaluator, monkeypatch):
        for tile, expected in ((64, 4), (3, 3)):
            monkeypatch.setattr(
                engine_mod, "_CONFIG_TILE_BUDGET_BYTES",
                tile_budget(sobel_evaluator, tile),
            )
            assert sobel_evaluator.config_tile(4) == expected

    def test_auto_tile_bounded(self, sobel_evaluator):
        tile = sobel_evaluator.config_tile(5)
        assert 1 <= tile <= 5


class TestQorBatch:
    def test_matches_per_config_qor(self, sobel_space, sobel_evaluator):
        configs = list(sobel_space.random_configurations(6, rng=53))
        tables = sobel_evaluator._batch_tables(sobel_space, configs)
        scores = sobel_evaluator.qor_batch(tables, len(configs))
        for c, config in enumerate(configs):
            expected = sobel_evaluator.qor(
                sobel_space.assignment_callables(config)
            )
            assert scores[c] == expected


class TestBatchedSsimBatch:
    def test_rows_match_per_slice_call(self, rng):
        ref = rng.uniform(0.0, 255.0, size=(3, 17, 23))
        ssim = BatchedSsim(ref)
        test = rng.uniform(0.0, 255.0, size=(5, 3, 17, 23))
        batch = ssim.batch(test)
        assert batch.shape == (5, 3)
        for c in range(5):
            assert np.array_equal(batch[c], ssim(test[c]))

    def test_rejects_wrong_rank_or_shape(self, rng):
        ref = rng.uniform(0.0, 255.0, size=(2, 8, 8))
        ssim = BatchedSsim(ref)
        with pytest.raises(ValueError):
            ssim.batch(rng.uniform(0.0, 255.0, size=(2, 8, 8)))
        with pytest.raises(ValueError):
            ssim.batch(rng.uniform(0.0, 255.0, size=(4, 2, 8, 9)))


class TestSpaceCaches:
    def test_assignment_callables_memoised(self, sobel_space):
        config = sobel_space.random_configuration(rng=3)
        first = sobel_space.assignment_callables(config)
        second = sobel_space.assignment_callables(config)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] is second[name]

    def test_stacked_lut_cached_and_blockwise(self, sobel_space):
        flat = sobel_space.stacked_lut(0)
        assert flat is sobel_space.stacked_lut(0)
        assert not flat.flags.writeable
        group = sobel_space.choices[0]
        block = 4 ** group[0].width
        assert flat.shape == (len(group) * block,)
        for i, record in enumerate(group):
            assert np.array_equal(
                flat[i * block:(i + 1) * block], record.lut()
            )

    def test_pickle_drops_lazy_caches(self, sobel_space):
        config = sobel_space.random_configuration(rng=9)
        sobel_space.stacked_lut(0)
        sobel_space.assignment_callables(config)
        clone = pickle.loads(pickle.dumps(sobel_space))
        assert clone._slot_luts == {}
        assert clone._impl_memo == {}
        # The caches rebuild to the same tables on first use.
        for k in range(clone.n_slots):
            assert np.array_equal(
                clone.stacked_lut(k), sobel_space.stacked_lut(k)
            )


class TestEnginePickle:
    def test_pickled_engine_evaluates_identically(
        self, sobel, small_images, sobel_space
    ):
        engine = EvaluationEngine(sobel, small_images)
        configs = some_configs(sobel_space, n=4, rng=67)
        first = engine.evaluate_many(sobel_space, configs)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.evaluate_many(sobel_space, configs) == first
