"""Image quality metrics: MSE, PSNR and SSIM.

SSIM follows Wang et al. (2004) with the standard 11x11 Gaussian window
(sigma = 1.5) and stabilisation constants K1 = 0.01, K2 = 0.03, matching the
configuration used by common toolboxes and, per the paper, the QoR measure of
all three case studies.

For the evaluation engine the metric also comes in a batched flavour:
:class:`BatchedSsim` scores a whole ``(runs, H, W)`` stack of test images
against a fixed reference stack.  The reference-side window statistics
are precomputed once (two of the five Gaussian filters an SSIM evaluation
needs), which matters when thousands of configurations are scored against
the same golden outputs.

The Gaussian windows are the package's numpy filter
(:mod:`repro.imaging.gaussian`), bit-identical to
``scipy.ndimage.gaussian_filter(mode="reflect")``, so scoring an image
imports no scipy.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.imaging.gaussian import GaussianWindow, gaussian_filter


def _as_float_pair(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError("metrics expect 2-D gray-scale images")
    return a, b


def mse(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean squared error between two gray-scale images."""
    a, b = _as_float_pair(reference, test)
    return float(np.mean((a - b) ** 2))


def psnr(
    reference: np.ndarray, test: np.ndarray, data_range: float = 255.0
) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical images)."""
    err = mse(reference, test)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range**2 / err))


def ssim(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float = 255.0,
    sigma: float = 1.5,
    truncate: float = 3.5,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Mean structural similarity index between two gray-scale images.

    Local statistics are computed with a Gaussian window of width
    ``2 * truncate * sigma + 1`` (11 px for the defaults).  Returns a value
    in [-1, 1]; 1 means identical images.
    """
    a, b = _as_float_pair(reference, test)
    if data_range <= 0:
        raise ValueError("data_range must be positive")

    def win_mean(img: np.ndarray) -> np.ndarray:
        return gaussian_filter(img, sigma, truncate)

    mu_a = win_mean(a)
    mu_b = win_mean(b)
    mu_aa = win_mean(a * a)
    mu_bb = win_mean(b * b)
    mu_ab = win_mean(a * b)

    var_a = mu_aa - mu_a * mu_a
    var_b = mu_bb - mu_b * mu_b
    cov_ab = mu_ab - mu_a * mu_b

    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    numerator = (2 * mu_a * mu_b + c1) * (2 * cov_ab + c2)
    denominator = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(numerator / denominator))


class BatchedSsim:
    """SSIM of image stacks against a fixed reference stack.

    The reference ``(runs, H, W)`` stack is filtered once at construction;
    every call then needs only the three test-side Gaussian filters.  Test
    images are scored one at a time: each image's ``b``, ``b * b`` and
    ``ref * b`` are stacked into one ``(3, H, W)`` block, blurred with
    ``sigma = 0`` on the block axis in strips of rows, and each strip goes
    through the SSIM formula while it is still in cache; so the working
    set stays cache-sized however many runs or configurations the stack
    holds.  Every image sees exactly the 2-D window of :func:`ssim`, and
    each per-image mean matches a whole-stack ``mean(axis=(-2, -1))`` bit
    for bit.
    """

    def __init__(
        self,
        reference: np.ndarray,
        data_range: float = 255.0,
        sigma: float = 1.5,
        truncate: float = 3.5,
        k1: float = 0.01,
        k2: float = 0.03,
    ):
        reference = np.asarray(reference, dtype=float)
        if reference.ndim != 3:
            raise ValueError("BatchedSsim expects a (runs, H, W) stack")
        if data_range <= 0:
            raise ValueError("data_range must be positive")
        self._sigma = (0.0, sigma, sigma)
        self._truncate = truncate
        self._c1 = (k1 * data_range) ** 2
        self._c2 = (k2 * data_range) ** 2
        self._ref = reference
        self._mu_a = gaussian_filter(reference, self._sigma, truncate)
        self._mu_aa = gaussian_filter(
            reference * reference, self._sigma, truncate
        )
        # Reference-only terms of the SSIM formula, computed once.
        self._two_mu_a = 2.0 * self._mu_a
        self._mu_a_sq_c1 = self._mu_a * self._mu_a + self._c1
        self._var_a_c2 = (
            self._mu_aa - self._mu_a * self._mu_a + self._c2
        )
        # Per-thread scoring buffers, made on first use.  Fresh buffers on
        # every call made a two-run (128, 192) call a quarter slower
        # (about 300 page faults each).
        self._scratch = threading.local()

    def __getstate__(self):
        # Buffers stay with their process: pickled to a pool worker they
        # would arrive as read-only shared memory.
        state = dict(self.__dict__)
        del state["_scratch"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._scratch = threading.local()

    def _buffers(self):
        """This thread's ``(window, block, numerator)`` buffers."""
        buffers = getattr(self._scratch, "buffers", None)
        if buffers is None:
            shape = self._ref.shape[1:]
            block_shape = (3,) + shape
            buffers = self._scratch.buffers = (
                GaussianWindow(block_shape, self._sigma, self._truncate),
                np.empty(block_shape),
                np.empty(shape),
            )
        return buffers

    @property
    def shape(self):
        return self._ref.shape

    def _score(self, b: np.ndarray) -> np.ndarray:
        """Per-image SSIM of ``b``, a stack whose last three axes match
        the reference: image ``b[..., run, :, :]`` is scored against
        reference run ``run``.
        """
        window, block, numerator = self._buffers()
        x, xx, ref_x = block
        scores = np.empty(b.shape[:-2])
        for index in np.ndindex(*scores.shape):
            run = index[-1]
            x[...] = b[index]
            np.multiply(x, x, out=xx)
            np.multiply(self._ref[run], x, out=ref_x)
            for (_, rows, _), part in window.strips(block):
                mu_b, mu_bb, mu_ab = part
                ref = (run, rows)
                num = numerator[rows]
                # cov_ab = mu_ab - mu_a * mu_b, built in place on mu_ab.
                np.multiply(self._mu_a[ref], mu_b, out=num)
                mu_ab -= num
                mu_ab *= 2.0
                mu_ab += self._c2
                np.multiply(self._two_mu_a[ref], mu_b, out=num)
                num += self._c1
                num *= mu_ab
                mu_b *= mu_b  # mu_b ** 2, in place
                mu_bb -= mu_b  # var_b, in place
                mu_bb += self._var_a_c2[ref]
                mu_b += self._mu_a_sq_c1[ref]
                num /= mu_b
                num /= mu_bb
            scores[index] = np.mean(numerator)
        return scores

    def __call__(self, test: np.ndarray) -> np.ndarray:
        """Per-run SSIM scores of ``test`` (same shape as the reference)."""
        b = np.asarray(test)
        if b.shape != self._ref.shape:
            raise ValueError(
                f"shape mismatch: {b.shape} vs {self._ref.shape}"
            )
        return self._score(b)

    def batch(self, test: np.ndarray) -> np.ndarray:
        """Per-run SSIM of a ``(C, runs, H, W)`` configuration stack.

        Row ``c`` of the returned ``(C, runs)`` score matrix is
        bit-identical to ``__call__(test[c])``: both score the same
        images with the same window and arithmetic.
        """
        b = np.asarray(test)
        if b.ndim != 4 or b.shape[1:] != self._ref.shape:
            raise ValueError(
                f"expected a (C,) + {self._ref.shape} stack, "
                f"got {b.shape}"
            )
        return self._score(b)


def ssim_batch(
    reference: np.ndarray, test: np.ndarray, **kwargs
) -> np.ndarray:
    """Per-run SSIM of two ``(runs, H, W)`` stacks (see :class:`BatchedSsim`)."""
    return BatchedSsim(reference, **kwargs)(test)
