"""Deterministic synthetic benchmark images.

The autoAx experiments profile accelerators and measure SSIM on 8-bit
gray-scale natural images (384x256, Berkeley Segmentation Dataset).  The
important statistical property — visible in the paper's Fig. 3 PMFs — is
that neighbouring pixels are strongly correlated, so operand pairs cluster
near the diagonal.  The generator below composes smooth gradients, Gaussian
blobs, polygonal regions, sinusoidal texture and low-pass-filtered noise to
obtain scenes with that local-correlation structure, seeded per image index
so the dataset is fully reproducible.

The noise fields are low-pass filtered with :func:`_gaussian_filter`, a
numpy transcription of ``scipy.ndimage.gaussian_filter(mode="reflect")``
that reproduces it bit for bit, so building images never imports scipy.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.utils.rng import ensure_rng

DEFAULT_SHAPE: Tuple[int, int] = (256, 384)  # rows, cols — paper: 384x256 px


def _gaussian_filter(field: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, bit-identical to scipy's ``gaussian_filter``.

    Mirrors ``scipy.ndimage.gaussian_filter(field, sigma, mode="reflect")``
    step for step: the kernel is ``exp(-0.5 / sigma**2 * x**2)`` normalised
    by its sum over ``x`` in ``[-radius, radius]`` with radius
    ``int(4 * sigma + 0.5)``; every axis is padded half-sample
    symmetrically (``np.pad`` mode ``"symmetric"`` reflects repeatedly when
    the radius exceeds the axis length, as scipy does); and each output
    sample is accumulated in ``correlate1d``'s order for symmetric
    kernels — the centre tap first, then ``(left + right) * w_j`` from the
    outermost pair inward — so every float64 rounding matches.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = weights / weights.sum()
    out = field
    for axis in range(out.ndim):
        length = out.shape[axis]
        pad = [(0, 0)] * out.ndim
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="symmetric")

        def shifted(offset: int) -> np.ndarray:
            index = [slice(None)] * out.ndim
            index[axis] = slice(radius + offset, radius + offset + length)
            return padded[tuple(index)]

        out = shifted(0) * weights[radius]
        pair = np.empty_like(out)
        for j in range(radius, 0, -1):
            np.add(shifted(-j), shifted(j), out=pair)
            pair *= weights[radius - j]
            out += pair
    return out


def _smooth_noise(
    rng: np.random.Generator, shape: Tuple[int, int], sigma: float
) -> np.ndarray:
    """Zero-mean unit-ish noise field low-pass filtered at scale ``sigma``."""
    field = rng.standard_normal(shape)
    field = _gaussian_filter(field, sigma)
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
