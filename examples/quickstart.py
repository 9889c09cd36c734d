#!/usr/bin/env python
"""Quickstart: approximate a Sobel edge detector with autoAx.

Builds a small approximate-component library, runs the full three-step
methodology (profile -> reduce -> model -> explore -> verify) and prints
the final Pareto front of real (SSIM, area) trade-offs.

Run time: ~1 minute on a laptop.
"""

from repro import (
    AutoAx,
    AutoAxConfig,
    SobelEdgeDetector,
    benchmark_images,
    generate_library,
    scaled_plan,
)


def main() -> None:
    print("Generating and characterising the component library...")
    library = generate_library(scaled_plan(scale=0.01, floor=48))
    print(f"  {len(library)} components: {library.summary()}")

    images = benchmark_images(4, shape=(128, 192))
    accelerator = SobelEdgeDetector()
    print(f"\nAccelerator: {accelerator.name}")
    print(f"  replaceable operations: "
          f"{[s.name for s in accelerator.op_slots()]}")

    config = AutoAxConfig(
        n_train=150,
        n_test=75,
        max_evaluations=10_000,
        seed=0,
    )
    print("\nRunning the autoAx pipeline...")
    result = AutoAx(accelerator, library, images, config=config).run()

    sizes = result.summary_row()
    print(f"\nDesign space: {sizes['all_possible']:.3g} configurations"
          f" -> {sizes['after_preprocessing']:.3g} after library"
          " pre-processing")
    print(f"QoR model: {result.qor_model.name} "
          f"(test fidelity {result.qor_model.fidelity_test:.1%})")
    print(f"HW model:  {result.hw_model.name} "
          f"(test fidelity {result.hw_model.fidelity_test:.1%})")
    print(f"Pseudo Pareto set: {len(result.pseudo_pareto)} configurations"
          f" from {result.pseudo_pareto.evaluations} model evaluations")

    print(f"\nFinal Pareto front ({len(result.final_configs)} designs):")
    print(f"  {'SSIM':>7s}  {'area (um^2)':>12s}")
    order = result.final_points[:, 1].argsort()
    for ssim_value, area in result.final_points[order]:
        print(f"  {ssim_value:7.4f}  {area:12.1f}")

    # Compare against the accurate accelerator (exact circuit everywhere).
    from repro.core import EvaluationEngine

    evaluator = EvaluationEngine(accelerator, images)
    exact_cfg = result.space.exact_configuration()
    exact_area = evaluator.hardware(result.space.records(exact_cfg)).area
    good = result.final_points[result.final_points[:, 0] >= 0.95]
    if len(good):
        cheapest = good[good[:, 1].argmin()]
        saving = 1.0 - cheapest[1] / exact_area
        print(f"\nAccurate accelerator area: {exact_area:.1f} um^2.")
        print(f"At SSIM >= 0.95 the cheapest approximate design saves "
              f"{saving:.0%} area.")


if __name__ == "__main__":
    main()
