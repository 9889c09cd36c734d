"""Shared fixtures: a tiny characterised library and small benchmark data.

Session-scoped so the (seconds-long) library characterisation runs once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators import (
    FixedGaussianFilter,
    SobelEdgeDetector,
    profile_accelerator,
)
from repro.core import EvaluationEngine, reduce_library
from repro.imaging import benchmark_images
from repro.library import generate_library
from repro.library.generation import GenerationPlan


@pytest.fixture(autouse=True)
def _isolate_store_env(monkeypatch):
    """Keep a developer's real REPRO_STORE_DIR out of the test suite.

    Tests opt back in with their own ``monkeypatch.setenv``.
    """
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)


@pytest.fixture(scope="session")
def tiny_library():
    """A small but complete library covering all six signatures."""
    plan = GenerationPlan(
        {
            ("add", 8): 24,
            ("add", 9): 16,
            ("add", 16): 12,
            ("sub", 10): 16,
            ("sub", 16): 12,
            ("mul", 8): 24,
        },
        seed=0,
        sample_size=1 << 12,
    )
    return generate_library(plan)


@pytest.fixture(scope="session")
def small_images():
    """Two small benchmark images (48x64) for fast QoR evaluation."""
    return benchmark_images(2, shape=(48, 64))


@pytest.fixture(scope="session")
def sobel():
    return SobelEdgeDetector()


@pytest.fixture(scope="session")
def sobel_profiles(sobel, small_images):
    return profile_accelerator(sobel, small_images, rng=0)


@pytest.fixture(scope="session")
def sobel_space(sobel, tiny_library, sobel_profiles):
    return reduce_library(sobel, tiny_library, sobel_profiles)


@pytest.fixture(scope="session")
def sobel_evaluator(sobel, small_images):
    return EvaluationEngine(sobel, small_images)


@pytest.fixture(scope="session")
def fixed_gf():
    return FixedGaussianFilter()


@pytest.fixture(scope="session")
def gf_space(fixed_gf, tiny_library, small_images):
    """A space with 16-bit slots: not LUT-capable, so ``evaluate_many``
    takes the classic (loop or pool) route on it."""
    profiles = profile_accelerator(fixed_gf, small_images, rng=0)
    space = reduce_library(fixed_gf, tiny_library, profiles)
    assert not space.lut_capable()
    return space


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
