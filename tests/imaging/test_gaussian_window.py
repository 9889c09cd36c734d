"""The numpy Gaussian window and SSIM are bit-identical to scipy.

``scipy.ndimage`` is the oracle only: no module under ``repro`` imports
it.  Every comparison is ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.imaging.gaussian import GaussianWindow, gaussian_filter
from repro.imaging.metrics import BatchedSsim, ssim


def _scipy_blur(image, sigma, truncate):
    return ndimage.gaussian_filter(
        image, sigma=sigma, truncate=truncate, mode="reflect"
    )


@pytest.mark.parametrize("truncate", [3.5, 4.0])
@pytest.mark.parametrize(
    "shape,sigma",
    [
        ((128, 192), 1.5),
        ((37, 23), 0.7),
        # both axes shorter than the radius (23 at sigma 6): the padding
        # reflects repeatedly
        ((5, 3), 6.0),
        ((1, 9), 2.0),
        ((2, 2), (0.0, 24.0)),
        ((3, 17, 23), (0.0, 1.5, 1.5)),
        ((4, 6, 5), 1.2),
        ((3, 9, 40), (2.5, 0.0, 1.5)),
        ((2, 3, 17, 23), (0.0, 0.0, 1.5, 1.5)),
        ((2, 3, 4, 5), (1.0, 0.0, 3.0, 0.5)),
        ((4, 5), (0.0, 0.0)),
        ((4, 5), 1e-16),
        ((4, 5), 0.05),  # radius 0: a single unit tap
        # several strips along the first filtered axis, the last partial
        ((3, 400, 200), (0.0, 1.5, 1.5)),
        ((700, 60), 6.0),
    ],
)
def test_filter_matches_scipy(shape, sigma, truncate):
    image = np.random.default_rng(3).standard_normal(shape) * 100.0
    expected = _scipy_blur(image, sigma, truncate)
    assert np.array_equal(gaussian_filter(image, sigma, truncate), expected)


def test_window_reuse_matches_scipy():
    rng = np.random.default_rng(4)
    sigma = (0.0, 1.5, 1.5)
    window = GaussianWindow((3, 400, 30), sigma, 3.5)
    for _ in range(3):
        block = rng.standard_normal((3, 400, 30))
        expected = _scipy_blur(block, sigma, 3.5)
        count = 0
        for index, part in window.strips(block):
            assert np.array_equal(part, expected[index])
            count += 1
        assert count > 1  # non-vacuous: several strips


def test_filter_leaves_input_untouched():
    image = np.random.default_rng(5).standard_normal((3, 8, 12))
    before = image.copy()
    gaussian_filter(image, (0.0, 1.5, 1.5), 3.5)
    assert np.array_equal(image, before)


def test_filter_reads_integers_as_float64():
    image = np.arange(60).reshape(6, 10)
    expected = _scipy_blur(image.astype(float), 1.0, 4.0)
    assert np.array_equal(gaussian_filter(image, 1.0), expected)
    assert np.array_equal(gaussian_filter(image, 0.0), image)


def test_filter_rejects_wrong_sigma_count():
    with pytest.raises(ValueError, match="one value per axis"):
        gaussian_filter(np.zeros((4, 4)), (1.0, 1.0, 1.0))


def test_window_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape mismatch"):
        next(GaussianWindow((4, 4), 1.0).strips(np.zeros((4, 5))))


# -- SSIM against a scipy-built reference -----------------------------------

C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2


def _scipy_ssim_maps(ref, test, sigma):
    """The SSIM map chain with scipy windows, in the metric's ufunc order."""

    def blur(image):
        return _scipy_blur(image, sigma, 3.5)

    mu_a, mu_aa = blur(ref), blur(ref * ref)
    mu_b, mu_bb, mu_ab = blur(test), blur(test * test), blur(ref * test)
    mu_ab -= mu_a * mu_b
    mu_ab *= 2.0
    mu_ab += C2
    numerator = (2.0 * mu_a * mu_b + C1) * mu_ab
    mu_b *= mu_b
    mu_bb -= mu_b
    mu_bb += mu_aa - mu_a * mu_a + C2
    mu_b += mu_a * mu_a + C1
    numerator /= mu_b
    numerator /= mu_bb
    return numerator


def _scipy_scalar_ssim(ref, test):
    def blur(image):
        return _scipy_blur(image, 1.5, 3.5)

    mu_a, mu_b = blur(ref), blur(test)
    var_a = blur(ref * ref) - mu_a * mu_a
    var_b = blur(test * test) - mu_b * mu_b
    cov_ab = blur(ref * test) - mu_a * mu_b
    numerator = (2 * mu_a * mu_b + C1) * (2 * cov_ab + C2)
    denominator = (mu_a**2 + mu_b**2 + C1) * (var_a + var_b + C2)
    return float(np.mean(numerator / denominator))


def _stacks(shape, seed):
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, 256, shape).astype(float)
    test = np.clip(np.round(ref + rng.normal(0, 20, shape)), 0, 255)
    return ref, test


SSIM_SHAPES = [(10, 128, 192), (2, 128, 192), (1, 17, 23), (3, 9, 40)]


@pytest.mark.parametrize("shape", SSIM_SHAPES)
def test_batched_ssim_matches_scipy(shape):
    ref, test = _stacks(shape, 6)
    maps = _scipy_ssim_maps(ref, test, (0.0, 1.5, 1.5))
    expected = np.mean(maps, axis=(1, 2))
    scorer = BatchedSsim(ref)
    assert np.array_equal(scorer(test), expected)
    # integer outputs (as the engine passes them) score identically
    assert np.array_equal(scorer(test.astype(np.int64)), expected)


@pytest.mark.parametrize("shape", SSIM_SHAPES)
def test_batched_ssim_batch_matches_scipy(shape):
    ref, test = _stacks(shape, 7)
    configs = np.stack([test, 255.0 - test, np.round(0.5 * test)])
    maps = _scipy_ssim_maps(
        np.broadcast_to(ref, configs.shape), configs,
        (0.0, 0.0, 1.5, 1.5),
    )
    assert np.array_equal(
        BatchedSsim(ref).batch(configs), np.mean(maps, axis=(2, 3))
    )


@pytest.mark.parametrize("shape", [(128, 192), (17, 23), (9, 40)])
def test_scalar_ssim_matches_scipy(shape):
    ref, test = _stacks(shape, 8)
    assert ssim(ref, test) == _scipy_scalar_ssim(ref, test)
