"""Built-in workload catalog: every entry builds and is semantically right.

The golden (exact) output of every catalog workload is checked against a
direct numpy/scipy window-convolution model, so a mis-derived width or a
wrong scenario coefficient set fails loudly here.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.accelerators.window import WindowAccelerator
from repro.core.configuration import ConfigurationSpace
from repro.core.engine import EvaluationEngine
from repro.library.generation import GenerationPlan, generate_library
from repro.workloads import WORKLOADS, build_bundle

#: Catalog names that must stay stable (consumers key on them).
EXPECTED_NAMES = [
    "sobel",
    "fixed_gf",
    "generic_gf",
    "gaussian5",
    "box5",
    "box3_6b",
    "sharpen3",
    "unsharp3",
    "log5",
    "gaussian5_sep",
]

FAMILY_NAMES = [
    name
    for name in EXPECTED_NAMES
    if isinstance(
        WORKLOADS.get(name).build_accelerator(), WindowAccelerator
    )
]


def scenario_kernel(accelerator, extra):
    """The integer kernel a scenario (or fixed spec) realises."""
    spec = accelerator.spec
    n = spec.size
    if spec.mode == "fixed":
        return np.asarray(spec.weights, dtype=np.int64).reshape(n, n)
    if spec.mode == "general":
        return np.asarray(
            [extra[f"w{k}"] for k in range(n * n)], dtype=np.int64
        ).reshape(n, n)
    h = np.asarray([extra[f"h{c}"] for c in range(n)], dtype=np.int64)
    v = np.asarray([extra[f"v{r}"] for r in range(n)], dtype=np.int64)
    return np.outer(v, h)


def random_qors(name, count=3):
    """Real QoR of ``count`` random configurations of a workload.

    The space draws from a small generated pool per signature.
    """
    bundle = build_bundle(name, n_images=1, image_shape=(16, 20))
    accelerator = bundle.accelerator
    plan = GenerationPlan(
        {sig: 3 for sig in sorted(accelerator.op_inventory())},
        seed=0,
        sample_size=1 << 8,
    )
    library = generate_library(plan)
    slots = accelerator.op_slots()
    choices = [library.components(slot.signature) for slot in slots]
    space = ConfigurationSpace(
        slots, choices, [[0.0] * len(group) for group in choices]
    )
    engine = EvaluationEngine(accelerator, bundle.images, bundle.scenarios)
    return [
        engine.qor(space.assignment_callables(config))
        for config in space.random_configurations(count, rng=1)
    ]


class TestCatalogShape:
    def test_registered_names(self):
        assert WORKLOADS.names() == EXPECTED_NAMES

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_builds_and_describes(self, name):
        workload = WORKLOADS.get(name)
        accelerator = workload.build_accelerator()
        assert workload.description
        assert accelerator.op_slots()
        scenarios = workload.build_scenarios()
        if scenarios is not None:
            # every scenario must be a valid extra-input assignment
            image = np.zeros((8, 8), dtype=np.uint8)
            for extra in scenarios:
                accelerator.golden(image, extra=extra)
        assert all(0.0 <= q <= 1.0 for q in random_qors(name))

    def test_family_opens_new_windows(self):
        windows = {
            WORKLOADS.get(name).build_accelerator().window
            for name in FAMILY_NAMES
        }
        assert 5 in windows  # beyond the seed 3x3 case studies


class TestCatalogSemantics:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_golden_matches_direct_convolution(self, name):
        bundle = build_bundle(name, n_images=1, image_shape=(20, 28))
        accelerator = bundle.accelerator
        spec = accelerator.spec
        image = bundle.images[0]
        for extra in bundle.scenarios or [None]:
            got = accelerator.golden(image, extra=extra)
            kernel = scenario_kernel(accelerator, extra)
            want = ndimage.correlate(
                image.astype(np.int64), kernel, mode="nearest"
            )
            if spec.absolute:
                want = np.abs(want)
            want = np.clip(want >> spec.shift, 0, spec.pixel_max)
            assert np.array_equal(got, want)

    def test_blur_scenarios_preserve_brightness(self):
        # normalised kernels: Σw == 2**shift, so flat images map to
        # themselves (up to the floor of the final shift)
        for name in ("gaussian5", "box5", "box3_6b", "gaussian5_sep"):
            bundle = build_bundle(name, n_images=1, image_shape=(8, 8))
            spec = bundle.accelerator.spec
            for extra in bundle.scenarios:
                kernel = scenario_kernel(bundle.accelerator, extra)
                assert int(kernel.sum()) == 1 << spec.shift, name

    def test_scenario_counts(self):
        counts = {
            name: len(WORKLOADS.get(name).build_scenarios() or [None])
            for name in EXPECTED_NAMES
        }
        assert counts["gaussian5"] == 5
        assert counts["gaussian5_sep"] == 5
        assert counts["box5"] == 3
        assert counts["box3_6b"] == 2
        assert counts["generic_gf"] == 5

    def test_gaussian5_sigma_sweep_is_monotonic(self):
        # wider sigma => flatter kernel => smaller centre tap
        scenarios = WORKLOADS.get("gaussian5").build_scenarios()
        centres = [extra["w12"] for extra in scenarios]
        assert centres == sorted(centres, reverse=True)
        # quantisation can collapse neighbouring sigmas; most must differ
        assert len(set(centres)) >= 4
