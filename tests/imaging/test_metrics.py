import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.datasets import synthetic_image
from repro.imaging.metrics import BatchedSsim, mse, psnr, ssim, ssim_batch


@pytest.fixture(scope="module")
def image():
    return synthetic_image(0, shape=(64, 96)).astype(float)


class TestMSE:
    def test_identity(self, image):
        assert mse(image, image) == 0.0

    def test_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 2.0)
        assert mse(a, b) == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros(4), np.zeros(4))


class TestPSNR:
    def test_identical_is_infinite(self, image):
        assert psnr(image, image) == float("inf")

    def test_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 255.0)
        assert psnr(a, b) == pytest.approx(0.0)

    def test_monotone_in_noise(self, image):
        rng = np.random.default_rng(0)
        small = image + rng.normal(0, 1, image.shape)
        large = image + rng.normal(0, 8, image.shape)
        assert psnr(image, small) > psnr(image, large)


class TestSSIM:
    def test_identity(self, image):
        assert ssim(image, image) == pytest.approx(1.0)

    def test_symmetry(self, image):
        rng = np.random.default_rng(1)
        other = np.clip(image + rng.normal(0, 10, image.shape), 0, 255)
        assert ssim(image, other) == pytest.approx(
            ssim(other, image), abs=1e-12
        )

    def test_bounded(self, image):
        inverted = 255.0 - image
        value = ssim(image, inverted)
        assert -1.0 <= value <= 1.0

    def test_degrades_with_noise(self, image):
        rng = np.random.default_rng(2)
        mild = np.clip(image + rng.normal(0, 2, image.shape), 0, 255)
        harsh = np.clip(image + rng.normal(0, 30, image.shape), 0, 255)
        assert ssim(image, mild) > ssim(image, harsh)

    def test_constant_shift_high_similarity(self, image):
        shifted = np.clip(image + 2.0, 0, 255)
        assert ssim(image, shifted) > 0.95

    def test_invalid_data_range(self, image):
        with pytest.raises(ValueError):
            ssim(image, image, data_range=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=20),
           st.floats(min_value=0.5, max_value=10.0))
    def test_noise_never_beats_identity(self, seed, sigma):
        img = synthetic_image(1, shape=(32, 48)).astype(float)
        noisy = np.clip(
            img + np.random.default_rng(seed).normal(0, sigma, img.shape),
            0, 255,
        )
        assert ssim(img, noisy) <= 1.0 + 1e-9


class TestBatchedSsim:
    @pytest.fixture(scope="class")
    def stacks(self):
        rng = np.random.default_rng(3)
        reference = np.stack(
            [
                synthetic_image(k, shape=(48, 64)).astype(float)
                for k in range(4)
            ]
        )
        test = np.clip(
            reference + rng.normal(0, 15, reference.shape), 0, 255
        )
        return reference, test

    def test_matches_scalar_ssim(self, stacks):
        reference, test = stacks
        batch = ssim_batch(reference, test)
        scalar = np.array(
            [ssim(reference[k], test[k]) for k in range(4)]
        )
        assert np.allclose(batch, scalar, atol=1e-12)

    def test_identity_stack(self, stacks):
        reference, _ = stacks
        assert np.allclose(ssim_batch(reference, reference), 1.0)

    def test_reference_reuse(self, stacks):
        """One precomputed reference scores many test stacks."""
        reference, test = stacks
        scorer = BatchedSsim(reference)
        assert np.allclose(scorer(test), ssim_batch(reference, test))
        assert np.allclose(scorer(reference), 1.0)

    def test_pickles_after_use(self, stacks):
        """A used scorer (its scoring buffers made) still pickles, as
        the engine does for pool workers, and its copy scores the same
        with buffers of its own."""
        reference, test = stacks
        scorer = BatchedSsim(reference)
        scores = scorer(test)
        copy = pickle.loads(pickle.dumps(scorer))
        assert np.array_equal(copy(test), scores)
        assert np.array_equal(scorer(test), scores)

    def test_shape_validation(self, stacks):
        reference, _ = stacks
        with pytest.raises(ValueError):
            BatchedSsim(reference[0])  # 2-D, not a stack
        scorer = BatchedSsim(reference)
        with pytest.raises(ValueError):
            scorer(reference[:, :24, :])

    def test_invalid_data_range(self, stacks):
        reference, _ = stacks
        with pytest.raises(ValueError):
            BatchedSsim(reference, data_range=0.0)
