"""repro — a full reproduction of the autoAx methodology (DAC 2019).

autoAx automatically builds approximate accelerators by selecting and
combining approximate arithmetic circuits from characterised component
libraries, using machine-learned QoR / hardware-cost estimators and a
Pareto-archive hill climber.  See README.md for a tour and DESIGN.md for
the system inventory and per-experiment index.

Quick start::

    from repro import (AutoAx, AutoAxConfig, SobelEdgeDetector,
                       benchmark_images, generate_library, scaled_plan)

    library = generate_library(scaled_plan(0.01))
    images = benchmark_images(4)
    result = AutoAx(SobelEdgeDetector(), library, images,
                    config=AutoAxConfig(n_train=100, n_test=50,
                                        max_evaluations=2000)).run()
    print(result.summary_row())
"""

from repro.accelerators import (
    FixedGaussianFilter,
    GenericGaussianFilter,
    ImageAccelerator,
    SobelEdgeDetector,
    WindowAccelerator,
    WindowSpec,
    gaussian_kernel_weights,
    profile_accelerator,
    quantize_kernel,
)
from repro.core import (
    AutoAx,
    AutoAxConfig,
    AutoAxResult,
    ConfigurationSpace,
    DSEResult,
    EvaluationEngine,
    ParetoArchive,
    build_training_set,
    exhaustive_search,
    fit_engines,
    front_distances,
    heuristic_pareto_construction,
    hypervolume_2d,
    pareto_front_indices,
    random_sampling,
    reduce_library,
    select_best_model,
    uniform_selection,
    wmed,
)
from repro.imaging import benchmark_images, psnr, ssim, ssim_batch
from repro.search import (
    EvaluationBudget,
    PortfolioResult,
    PortfolioRunner,
    SearchStrategy,
    make_strategy,
)
from repro.library import (
    ComponentLibrary,
    ComponentRecord,
    generate_library,
    load_library,
    paper_scale_plan,
    record_from_circuit,
    save_library,
    scaled_plan,
)
from repro.workloads import WORKLOADS, Workload, build_bundle

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
    "PortfolioResult",
    "PortfolioRunner",
    "SearchStrategy",
    "make_strategy",
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
