"""repro — a full reproduction of the autoAx methodology (DAC 2019).

autoAx automatically builds approximate accelerators by selecting and
combining approximate arithmetic circuits from characterised component
libraries, using machine-learned QoR / hardware-cost estimators and a
Pareto-archive hill climber.  See README.md for a tour and its Layout
table for the system inventory; :mod:`repro.experiments` holds one driver
per paper table and figure.

Quick start::

    from repro import (AutoAx, AutoAxConfig, SobelEdgeDetector,
                       benchmark_images, generate_library, scaled_plan)

    library = generate_library(scaled_plan(0.01))
    images = benchmark_images(4)
    result = AutoAx(SobelEdgeDetector(), library, images,
                    config=AutoAxConfig(n_train=100, n_test=50,
                                        max_evaluations=2000)).run()
    print(result.summary_row())

The public names below resolve on first access (PEP 562), so importing
``repro`` — or a submodule such as ``repro.cli`` — loads only what the
caller uses.  No command imports scipy: image synthesis and SSIM share
one numpy Gaussian window (:mod:`repro.imaging.gaussian`).
"""

import importlib

# Package -> the public names it defines, imported on first access.
_EXPORTS = {
    "repro.accelerators": (
        "FixedGaussianFilter",
        "GenericGaussianFilter",
        "ImageAccelerator",
        "SobelEdgeDetector",
        "WindowAccelerator",
        "WindowSpec",
        "gaussian_kernel_weights",
        "profile_accelerator",
        "quantize_kernel",
    ),
    "repro.core": (
        "AutoAx",
        "AutoAxConfig",
        "AutoAxResult",
        "ConfigurationSpace",
        "DSEResult",
        "EvaluationEngine",
        "ParetoArchive",
        "build_training_set",
        "exhaustive_search",
        "fit_engines",
        "front_distances",
        "heuristic_pareto_construction",
        "hypervolume_2d",
        "pareto_front_indices",
        "random_sampling",
        "reduce_library",
        "select_best_model",
        "uniform_selection",
        "wmed",
    ),
    "repro.core.budget": ("EvaluationBudget",),
    "repro.imaging": ("benchmark_images", "psnr", "ssim", "ssim_batch"),
    "repro.library": (
        "ComponentLibrary",
        "ComponentRecord",
        "generate_library",
        "load_library",
        "paper_scale_plan",
        "record_from_circuit",
        "save_library",
        "scaled_plan",
    ),
    "repro.workloads": ("WORKLOADS", "Workload", "build_bundle"),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__version__ = "1.0.0"

__all__ = [
    "ImageAccelerator",
    "SobelEdgeDetector",
    "FixedGaussianFilter",
    "GenericGaussianFilter",
    "WindowAccelerator",
    "WindowSpec",
    "WORKLOADS",
    "Workload",
    "build_bundle",
    "gaussian_kernel_weights",
    "quantize_kernel",
    "profile_accelerator",
    "AutoAx",
    "AutoAxConfig",
    "AutoAxResult",
    "EvaluationEngine",
    "ConfigurationSpace",
    "DSEResult",
    "ParetoArchive",
    "build_training_set",
    "fit_engines",
    "select_best_model",
    "heuristic_pareto_construction",
    "random_sampling",
    "uniform_selection",
    "exhaustive_search",
    "EvaluationBudget",
    "reduce_library",
    "wmed",
    "pareto_front_indices",
    "front_distances",
    "hypervolume_2d",
    "benchmark_images",
    "ssim",
    "ssim_batch",
    "psnr",
    "ComponentLibrary",
    "ComponentRecord",
    "record_from_circuit",
    "generate_library",
    "scaled_plan",
    "paper_scale_plan",
    "save_library",
    "load_library",
    "__version__",
]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
