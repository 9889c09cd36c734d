"""Image substrate: synthetic benchmark dataset and quality metrics.

The paper evaluates QoR on 384x256 gray-scale images from the Berkeley
Segmentation Dataset.  That dataset is not redistributable here, so
:mod:`repro.imaging.datasets` synthesises deterministic natural-like scenes
with the same resolution and bit depth: smooth gradients, Gaussian blobs,
hard-edged regions, sinusoidal texture and low-pass noise, seeded per image
index, so neighbouring pixels are strongly correlated as in natural images.

The public names resolve on first access (PEP 562): reading benchmark
images loads no quality metric.
"""

import importlib

# Submodule -> the public names it defines, imported on first access.
_EXPORTS = {
    "datasets": (
        "benchmark_images",
        "synthetic_image",
    ),
    "metrics": (
        "BatchedSsim",
        "mse",
        "psnr",
        "ssim",
        "ssim_batch",
    ),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [
    "benchmark_images",
    "synthetic_image",
    "mse",
    "psnr",
    "ssim",
    "ssim_batch",
    "BatchedSsim",
]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
