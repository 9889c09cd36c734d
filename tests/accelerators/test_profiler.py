import pickle

import numpy as np
import pytest

from repro.accelerators.gaussian_generic import GenericGaussianFilter, kernel_sweep
from repro.accelerators.profiler import OperandProfile, profile_accelerator
from repro.accelerators.sobel import SobelEdgeDetector
from repro.imaging.datasets import benchmark_images


class TestProfileSobel:
    def test_all_slots_profiled(self, sobel, small_images, sobel_profiles):
        assert set(sobel_profiles) == {
            s.name for s in sobel.op_slots()
        }

    def test_dense_pmfs_for_narrow_ops(self, sobel_profiles):
        for name in ("add1", "add2", "sub"):
            pmf = sobel_profiles[name].pmf
            assert pmf is not None
            assert pmf.sum() == pytest.approx(1.0)
            assert pmf.min() >= 0

    def test_pmf_2d_shape(self, sobel_profiles):
        p = sobel_profiles["add1"].pmf_2d()
        assert p.shape == (256, 256)
        p = sobel_profiles["sub"].pmf_2d()
        assert p.shape == (1024, 1024)

    def test_total_count_matches_pixels(self, sobel_profiles, small_images):
        pixels = sum(img.size for img in small_images)
        assert sobel_profiles["add1"].total_count == pixels

    def test_samples_bounded(self, sobel, small_images):
        profiles = profile_accelerator(
            sobel, small_images, max_samples=500, rng=0
        )
        for p in profiles.values():
            assert p.sample_a.size <= 500
            assert p.sample_a.shape == p.sample_b.shape

    def test_diagonal_concentration(self, sobel_profiles):
        """Neighbouring pixels correlate: PMF mass hugs the diagonal
        (the paper's Fig. 3 observation)."""
        pmf = sobel_profiles["add1"].pmf_2d()
        a, b = np.nonzero(pmf)
        w = pmf[a, b]
        near = w[np.abs(a - b) <= 32].sum()
        assert near > 0.6

    def test_deterministic(self, sobel, small_images):
        p1 = profile_accelerator(sobel, small_images, rng=3)
        p2 = profile_accelerator(sobel, small_images, rng=3)
        assert np.array_equal(p1["add1"].sample_a, p2["add1"].sample_a)

    def test_empty_images_rejected(self, sobel):
        with pytest.raises(ValueError):
            profile_accelerator(sobel, [])


class TestStackedProfiling:
    def _reference_profiles(self, accelerator, images, scenarios,
                            max_samples, seed):
        """The seed semantics: per-run compute + capture + subsample."""
        from repro.utils.rng import ensure_rng

        gen = ensure_rng(seed)
        runs = scenarios if scenarios else [None]
        slots = accelerator.op_slots()
        samples = {s.name: [] for s in slots}
        counts = {s.name: 0 for s in slots}
        per_run_quota = max(
            1, max_samples // (len(images) * len(runs))
        )
        for image in images:
            for extra in runs:
                capture = {}
                accelerator.compute(
                    image, assignment=None, extra=extra,
                    capture=capture,
                )
                for name, (a, b) in capture.items():
                    a = a.reshape(-1)
                    b = b.reshape(-1)
                    counts[name] += a.size
                    take = min(per_run_quota, a.size)
                    if take < a.size:
                        idx = gen.choice(
                            a.size, size=take, replace=False
                        )
                        samples[name].append((a[idx], b[idx]))
                    else:
                        samples[name].append((a, b))
        return counts, {
            name: (
                np.concatenate([a for a, _ in pairs]),
                np.concatenate([b for _, b in pairs]),
            )
            for name, pairs in samples.items()
        }

    def test_stacked_path_matches_per_run_semantics(self, sobel,
                                                    small_images):
        profiles = profile_accelerator(
            sobel, small_images, max_samples=1000, rng=21
        )
        counts, samples = self._reference_profiles(
            sobel, small_images, None, 1000, 21
        )
        for name, profile in profiles.items():
            assert profile.total_count == counts[name]
            ref_a, ref_b = samples[name]
            assert np.array_equal(profile.sample_a, ref_a)
            assert np.array_equal(profile.sample_b, ref_b)

    def test_stacked_path_with_scenarios(self, small_images):
        acc = GenericGaussianFilter()
        scenarios = [acc.kernel_extra(w) for w in kernel_sweep(2)]
        profiles = profile_accelerator(
            acc, small_images, scenarios=scenarios, max_samples=800,
            rng=5,
        )
        counts, samples = self._reference_profiles(
            acc, small_images, scenarios, 800, 5
        )
        for name, profile in profiles.items():
            assert profile.total_count == counts[name]
            assert np.array_equal(profile.sample_a, samples[name][0])

    def test_mixed_shapes_fall_back(self, sobel):
        images = [
            benchmark_images(1, shape=(24, 32))[0],
            benchmark_images(1, shape=(32, 24))[0],
        ]
        profiles = profile_accelerator(sobel, images, rng=0)
        pixels = sum(img.size for img in images)
        assert profiles["add1"].total_count == pixels

    def test_chunked_batches_match_unchunked(self, sobel, small_images,
                                             monkeypatch):
        import repro.accelerators.profiler as profiler_module

        baseline = profile_accelerator(
            sobel, small_images, max_samples=900, rng=13
        )
        # Force many tiny chunks (and image groups of one).
        monkeypatch.setattr(
            profiler_module, "PROFILE_CHUNK_ELEMS", 64
        )
        chunked = profile_accelerator(
            sobel, small_images, max_samples=900, rng=13
        )
        for name, profile in baseline.items():
            other = chunked[name]
            assert other.total_count == profile.total_count
            assert np.array_equal(other.sample_a, profile.sample_a)
            assert np.array_equal(other.sample_b, profile.sample_b)
            if profile.pmf is not None:
                assert np.array_equal(other.pmf, profile.pmf)

    def test_const_operand_op_profiles(self, small_images):
        """Ops with a CONST operand capture a scalar; the stacked path
        must broadcast it per run instead of indexing into it."""
        from repro.accelerators.base import ImageAccelerator
        from repro.accelerators.graph import DataflowGraph, NodeKind

        class ConstBias(ImageAccelerator):
            name = "const_bias"

            def _build_graph(self):
                g = DataflowGraph(self.name)
                for k in range(9):
                    g.add_input(f"x{k}", 8)
                g.add_const("bias", 7, 8)
                g.add_op("add_b", NodeKind.ADD, 8, "x4", "bias")
                g.add_clip("out", "add_b", 0, 255)
                g.set_output("out")
                return g

        acc = ConstBias()
        profiles = profile_accelerator(acc, small_images, rng=0)
        profile = profiles["add_b"]
        # the scalar operand broadcasts against the pixel operand:
        # aligned (a, b) pairs, one per pixel per run
        pixels = sum(img.size for img in small_images)
        assert profile.total_count == pixels
        assert profile.sample_a.shape == profile.sample_b.shape
        assert np.all(profile.sample_b == 7)
        assert profile.pmf is not None
        assert profile.pmf.sum() == pytest.approx(1.0)


class TestProfileGenericGF:
    def test_wide_ops_use_samples(self, small_images):
        acc = GenericGaussianFilter()
        scenarios = [
            acc.kernel_extra(w) for w in kernel_sweep(2)
        ]
        profiles = profile_accelerator(
            acc, small_images[:1], scenarios=scenarios, rng=0
        )
        wide = profiles["sum1"]
        assert wide.pmf is None
        assert wide.sample_a.size > 0
        with pytest.raises(ValueError):
            wide.pmf_2d()

    def test_scenarios_multiply_counts(self, small_images):
        acc = GenericGaussianFilter()
        scenarios = [acc.kernel_extra(w) for w in kernel_sweep(3)]
        profiles = profile_accelerator(
            acc, small_images[:1], scenarios=scenarios, rng=0
        )
        assert profiles["mul0"].total_count == 3 * small_images[0].size


def assert_same_array(expected, array):
    assert array.dtype == expected.dtype
    assert array.shape == expected.shape
    assert array.tobytes() == expected.tobytes()
    assert array.flags.writeable and array.flags.c_contiguous


def assert_same_profiles(expected, profiles):
    assert list(profiles) == list(expected)
    for name, profile in expected.items():
        clone = profiles[name]
        assert list(vars(clone)) == list(vars(profile))
        assert clone.op_name == profile.op_name
        assert clone.signature == profile.signature
        assert clone.total_count == profile.total_count
        if profile.pmf is None:
            assert clone.pmf is None
        else:
            assert_same_array(profile.pmf, clone.pmf)
        assert_same_array(profile.sample_a, clone.sample_a)
        assert_same_array(profile.sample_b, clone.sample_b)


class TestCompactPickle:
    """Profiles pickle sparsely and unpickle to identical arrays."""

    @pytest.fixture(scope="class")
    def generic_profiles(self, small_images):
        acc = GenericGaussianFilter()
        scenarios = [acc.kernel_extra(w) for w in kernel_sweep(2)]
        return profile_accelerator(
            acc, small_images[:1], scenarios=scenarios, rng=0
        )

    def test_dense_pmfs_round_trip(self, sobel_profiles):
        assert_same_profiles(
            sobel_profiles, pickle.loads(pickle.dumps(sobel_profiles))
        )

    def test_sampled_profiles_round_trip(self, generic_profiles):
        assert any(p.pmf is None for p in generic_profiles.values())
        assert_same_profiles(
            generic_profiles, pickle.loads(pickle.dumps(generic_profiles))
        )

    def test_blob_stores_support_and_narrow_samples(self, sobel_profiles):
        profile = sobel_profiles["sub"]
        state = profile.__getstate__()
        size, support, values = state["pmf_sparse"]
        assert size == profile.pmf.size
        assert support.dtype == np.uint32
        assert values.dtype == np.float64
        assert support.size == np.count_nonzero(profile.pmf)
        dtype, sample = state["sample_a"]
        assert dtype == str(profile.sample_a.dtype)
        assert sample.dtype == np.uint16  # 10-bit operands
        dense = len(pickle.dumps(dict(vars(profile))))
        assert len(pickle.dumps(profile)) * 4 < dense

    def test_dense_state_still_loads(self, sobel_profiles,
                                     generic_profiles, monkeypatch):
        """Blobs pickled before the compact form held the attribute
        dict; they decode to equal profiles."""
        monkeypatch.delattr(OperandProfile, "__getstate__")
        old = {
            "sobel": pickle.dumps(sobel_profiles),
            "generic": pickle.dumps(generic_profiles),
        }
        monkeypatch.undo()
        assert_same_profiles(sobel_profiles, pickle.loads(old["sobel"]))
        assert_same_profiles(
            generic_profiles, pickle.loads(old["generic"])
        )

    def test_negative_samples_keep_their_dtype(self):
        profile = OperandProfile(
            op_name="x", signature=("add", 4), total_count=3, pmf=None,
            sample_a=np.array([-1, 0, 5], dtype=np.int64),
            sample_b=np.array([], dtype=np.int64),
        )
        assert_same_profiles({"x": profile},
                             pickle.loads(pickle.dumps({"x": profile})))
