"""Multiprocessing chunk path and worker-count validation.

``evaluate_many`` with ``workers >= 2`` fans configuration chunks out to
a process pool; these tests pin that path to the serial reference
result-for-result — including on a scenario-bearing registry workload —
and lock the ``REPRO_WORKERS`` / ``workers`` argument validation.
"""

import numpy as np
import pytest

from repro.accelerators.profiler import profile_accelerator
from repro.core.engine import (
    EvaluationEngine,
    default_workers,
    validate_workers,
)
from repro.core.preprocessing import reduce_library
from repro.workloads import build_bundle


class TestParallelEquivalence:
    def test_workers2_matches_serial_result_for_result(
        self, fixed_gf, small_images, gf_space
    ):
        # A non-LUT space: evaluate_many takes the chunked route on it.
        serial_engine = EvaluationEngine(fixed_gf, small_images)
        parallel_engine = EvaluationEngine(fixed_gf, small_images)
        configs = gf_space.random_configurations(9, rng=42)
        configs += configs[:3]  # duplicates cross chunk boundaries
        serial = serial_engine.evaluate_many(
            gf_space, configs, workers=1
        )
        parallel = parallel_engine.evaluate_many(
            gf_space, configs, workers=2
        )
        assert serial == parallel  # EvaluationResult is frozen/eq

    def test_workers2_matches_serial_on_scenario_workload(
        self, tiny_library
    ):
        """The chunk path must also cover stacked scenario batches."""
        bundle = build_bundle(
            "generic_gf", n_images=2, image_shape=(24, 32)
        )
        accelerator = bundle.accelerator
        scenarios = bundle.scenarios[:2]
        profiles = profile_accelerator(
            accelerator, bundle.images, scenarios=scenarios, rng=0
        )
        space = reduce_library(accelerator, tiny_library, profiles)
        engine = EvaluationEngine(
            accelerator, bundle.images, scenarios
        )
        configs = space.random_configurations(5, rng=3)
        serial = engine.evaluate_many(space, configs, workers=1)
        parallel = engine.evaluate_many(space, configs, workers=2)
        assert serial == parallel
        for result in serial:
            assert 0.0 <= result.qor <= 1.0
            assert result.area > 0

    def test_constructor_workers_used_by_default(
        self, sobel, small_images, sobel_space
    ):
        engine = EvaluationEngine(sobel, small_images, workers=2)
        assert engine.workers == 2
        configs = sobel_space.random_configurations(3, rng=5)
        reference = EvaluationEngine(sobel, small_images)
        assert engine.evaluate_many(sobel_space, configs) == \
            reference.evaluate_many(sobel_space, configs)


class TestWorkersValidation:
    def test_normalisation(self):
        assert validate_workers(None) is None
        assert validate_workers(0) is None
        assert validate_workers(1) is None
        assert validate_workers(2) == 2
        assert validate_workers("8") == 8
        assert validate_workers(" 3 ") == 3

    @pytest.mark.parametrize(
        "bad", [-1, -7, "-3", "2.5", "eight", "", 3.0, True]
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError, match="workers"):
            validate_workers(bad)

    def test_error_names_the_source(self):
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            validate_workers("nope", source="REPRO_WORKERS")
        with pytest.raises(ValueError, match="--workers"):
            validate_workers(-2, source="--workers")

    def test_env_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_env_float_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1.5")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_constructor_rejects_bad_workers(self, sobel, small_images):
        with pytest.raises(ValueError, match="workers"):
            EvaluationEngine(sobel, small_images, workers=-2)

    def test_evaluate_many_rejects_bad_workers(
        self, sobel, small_images, sobel_space
    ):
        engine = EvaluationEngine(sobel, small_images)
        configs = sobel_space.random_configurations(2, rng=1)
        with pytest.raises(ValueError, match="workers"):
            engine.evaluate_many(sobel_space, configs, workers=-1)
