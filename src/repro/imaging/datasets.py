"""Deterministic synthetic benchmark images.

The autoAx experiments profile accelerators and measure SSIM on 8-bit
gray-scale natural images (384x256, Berkeley Segmentation Dataset).  The
important statistical property — visible in the paper's Fig. 3 PMFs — is
that neighbouring pixels are strongly correlated, so operand pairs cluster
near the diagonal.  The generator below composes smooth gradients, Gaussian
blobs, polygonal regions, sinusoidal texture and low-pass-filtered noise to
obtain scenes with that local-correlation structure, seeded per image index
so the dataset is fully reproducible.

The noise fields are low-pass filtered with the package's numpy Gaussian
(:func:`repro.imaging.gaussian.gaussian_filter`, ``truncate = 4.0``), which
reproduces ``scipy.ndimage.gaussian_filter(mode="reflect")`` bit for bit,
so the images are those scipy's filter built (``test_datasets.py`` pins
their digests).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.imaging.gaussian import gaussian_filter
from repro.utils.rng import ensure_rng

DEFAULT_SHAPE: Tuple[int, int] = (256, 384)  # rows, cols — paper: 384x256 px


def _smooth_noise(
    rng: np.random.Generator, shape: Tuple[int, int], sigma: float
) -> np.ndarray:
    """Zero-mean unit-ish noise field low-pass filtered at scale ``sigma``."""
    field = rng.standard_normal(shape)
    field = gaussian_filter(field, sigma)
    peak = np.abs(field).max()
    if peak > 0:
        field /= peak
    return field


def _gradient(rng: np.random.Generator, shape: Tuple[int, int]) -> np.ndarray:
    """Random-direction linear gradient in [0, 1]."""
    rows, cols = shape
    yy, xx = np.mgrid[0:rows, 0:cols]
    theta = rng.uniform(0.0, 2.0 * np.pi)
    ramp = np.cos(theta) * xx / max(cols - 1, 1) + np.sin(theta) * yy / max(
        rows - 1, 1
    )
    ramp -= ramp.min()
    peak = ramp.max()
    return ramp / peak if peak > 0 else ramp


def _blobs(
    rng: np.random.Generator, shape: Tuple[int, int], count: int
) -> np.ndarray:
    """Sum of random Gaussian blobs, normalised to [0, 1]."""
    rows, cols = shape
    yy, xx = np.mgrid[0:rows, 0:cols]
    field = np.zeros(shape, dtype=float)
    for _ in range(count):
        cy = rng.uniform(0, rows)
        cx = rng.uniform(0, cols)
        sy = rng.uniform(rows / 20, rows / 4)
        sx = rng.uniform(cols / 20, cols / 4)
        amp = rng.uniform(-1.0, 1.0)
        field += amp * np.exp(
            -(((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2) / 2.0
        )
    field -= field.min()
    peak = field.max()
    return field / peak if peak > 0 else field


def _regions(
    rng: np.random.Generator, shape: Tuple[int, int], count: int
) -> np.ndarray:
    """Flat polygon-ish regions delimited by random half-planes (hard edges)."""
    rows, cols = shape
    yy, xx = np.mgrid[0:rows, 0:cols]
    field = np.full(shape, 0.5)
    for _ in range(count):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        offset = rng.uniform(0.2, 0.8)
        level = rng.uniform(0.0, 1.0)
        side = (
            np.cos(theta) * xx / max(cols - 1, 1)
            + np.sin(theta) * yy / max(rows - 1, 1)
        ) > offset
        field = np.where(side, 0.6 * field + 0.4 * level, field)
    return field


def _texture(rng: np.random.Generator, shape: Tuple[int, int]) -> np.ndarray:
    """Quasi-periodic sinusoidal texture in [-1, 1]."""
    rows, cols = shape
    yy, xx = np.mgrid[0:rows, 0:cols]
    fx = rng.uniform(2.0, 12.0)
    fy = rng.uniform(2.0, 12.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return np.sin(2 * np.pi * (fx * xx / cols + fy * yy / rows) + phase)


def synthetic_image(
    index: int, shape: Tuple[int, int] = DEFAULT_SHAPE
) -> np.ndarray:
    """Return benchmark image ``index`` as a ``uint8`` array of ``shape``.

    The same index always yields the same image.  Scene composition varies
    with the index so the dataset spans smooth, textured and edge-heavy
    content, mimicking the variety of a natural-image benchmark set.
    """
    if index < 0:
        raise ValueError("image index must be non-negative")
    rng = ensure_rng(0xA0A0 + index)
    base = 0.45 * _gradient(rng, shape) + 0.55 * _blobs(rng, shape, count=6)
    base = 0.7 * base + 0.3 * _regions(rng, shape, count=4)
    base += 0.12 * _texture(rng, shape) * _smooth_noise(rng, shape, sigma=24)
    base += 0.10 * _smooth_noise(rng, shape, sigma=6)
    base += 0.03 * _smooth_noise(rng, shape, sigma=1.2)
    base -= base.min()
    peak = base.max()
    if peak > 0:
        base /= peak
    return np.clip(np.round(base * 255.0), 0, 255).astype(np.uint8)


def benchmark_images(
    count: int = 24, shape: Tuple[int, int] = DEFAULT_SHAPE
) -> List[np.ndarray]:
    """Return the first ``count`` benchmark images (paper uses 24)."""
    if count <= 0:
        raise ValueError("count must be positive")
    return [synthetic_image(i, shape) for i in range(count)]
