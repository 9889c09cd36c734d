import hashlib

import numpy as np
import pytest
from scipy import ndimage

from repro.imaging.datasets import (
    DEFAULT_SHAPE,
    benchmark_images,
    synthetic_image,
)
from repro.imaging.gaussian import gaussian_filter


class TestSyntheticImage:
    def test_shape_and_dtype(self):
        img = synthetic_image(0)
        assert img.shape == DEFAULT_SHAPE
        assert img.dtype == np.uint8

    def test_deterministic(self):
        assert np.array_equal(synthetic_image(3), synthetic_image(3))

    def test_indices_differ(self):
        assert not np.array_equal(synthetic_image(0), synthetic_image(1))

    def test_custom_shape(self):
        img = synthetic_image(0, shape=(32, 48))
        assert img.shape == (32, 48)

    def test_uses_full_dynamic_range(self):
        img = synthetic_image(0)
        assert img.min() == 0
        assert img.max() == 255

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            synthetic_image(-1)

    def test_neighbour_correlation(self):
        """Natural-image statistics: adjacent pixels are correlated
        (the property behind the paper's Fig. 3 PMFs)."""
        img = synthetic_image(0).astype(float)
        left = img[:, :-1].reshape(-1)
        right = img[:, 1:].reshape(-1)
        corr = np.corrcoef(left, right)[0, 1]
        assert corr > 0.9


class TestBenchmarkImages:
    def test_count(self):
        imgs = benchmark_images(3, shape=(16, 16))
        assert len(imgs) == 3

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            benchmark_images(0)

    def test_images_are_prefix_stable(self):
        a = benchmark_images(2, shape=(16, 16))
        b = benchmark_images(3, shape=(16, 16))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestGaussianOracle:
    """The image blur (truncate 4.0) is bit-identical to scipy's
    ``gaussian_filter``; ``test_gaussian_window.py`` covers the SSIM
    window and per-axis sigmas."""

    @pytest.mark.parametrize("sigma", [24, 6, 1.2])
    @pytest.mark.parametrize(
        "shape",
        # (16, 16) and (2, 2) are shorter than the sigma=24 radius of 96,
        # so the padding reflects repeatedly.
        [(256, 384), (128, 192), (32, 48), (16, 16), (2, 2)],
    )
    def test_matches_scipy_reflect(self, shape, sigma):
        field = np.random.default_rng(7).standard_normal(shape)
        expected = ndimage.gaussian_filter(field, sigma=sigma, mode="reflect")
        assert np.array_equal(gaussian_filter(field, sigma), expected)

    def test_leaves_input_untouched(self):
        field = np.random.default_rng(1).standard_normal((8, 12))
        before = field.copy()
        gaussian_filter(field, 6)
        assert np.array_equal(field, before)


#: SHA-256 of ``benchmark_images(4, shape)`` concatenated, recorded while
#: the images were still blurred by ``scipy.ndimage.gaussian_filter``.
#: ``repro run`` builds DEFAULT_SHAPE images; ``repro workloads run`` and
#: the experiment setup build (128, 192) ones.
IMAGE_DIGESTS = {
    DEFAULT_SHAPE: (
        "b0398dd33aba5b65595c1ab901688bb5571927fef343fc865fbe8f6fd88d9e1d"
    ),
    (128, 192): (
        "b789e32bc00b677a1641479e7ad3d777c965e91654e153c81ad3e2f39320cd7f"
    ),
}


@pytest.mark.parametrize("shape", list(IMAGE_DIGESTS))
def test_benchmark_image_digest(shape):
    digest = hashlib.sha256()
    for image in benchmark_images(4, shape):
        digest.update(image.tobytes())
    assert digest.hexdigest() == IMAGE_DIGESTS[shape]
