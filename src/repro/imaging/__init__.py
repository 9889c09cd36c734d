"""Image substrate: synthetic benchmark dataset and quality metrics.

The paper evaluates QoR on 384x256 gray-scale images from the Berkeley
Segmentation Dataset.  That dataset is not redistributable here, so
:mod:`repro.imaging.datasets` synthesises deterministic natural-like scenes
with the same resolution and bit depth: smooth gradients, Gaussian blobs,
hard-edged regions, sinusoidal texture and low-pass noise, seeded per image
index, so neighbouring pixels are strongly correlated as in natural images.
"""

from repro.imaging.datasets import benchmark_images, synthetic_image
from repro.imaging.metrics import BatchedSsim, mse, psnr, ssim, ssim_batch

__all__ = [
    "benchmark_images",
    "synthetic_image",
    "mse",
    "psnr",
    "ssim",
    "ssim_batch",
    "BatchedSsim",
]
