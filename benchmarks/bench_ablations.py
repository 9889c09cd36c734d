"""Ablation benches for the methodology's design choices.

Model selection by fidelity vs R^2, WMED-guided library reduction vs a
random subset, Algorithm 1 restarts, and the QoR / hardware estimator
feature sets (see :mod:`repro.experiments.ablations`).
"""

from benchmarks._common import shared_setup, sized, write_result
from repro.experiments.ablations import (
    ablate_hw_features,
    ablate_model_selection,
    ablate_preprocessing,
    ablate_qor_features,
    ablate_restarts,
)
from repro.utils.tabulate import format_table


def test_ablation_fidelity_vs_r2(benchmark):
    setup = shared_setup()
    result = benchmark.pedantic(
        ablate_model_selection,
        args=(setup,),
        kwargs={"n_train": sized(300, 1500), "n_test": sized(200, 1500)},
        rounds=1,
        iterations=1,
    )
    write_result(
        "ablation_fidelity_vs_r2",
        format_table(
            ["selection criterion", "chosen engine", "test fidelity",
             "real front hypervolume"],
            [
                ["fidelity (paper)", result.by_fidelity,
                 f"{result.fidelity_of_fidelity_choice:.1%}",
                 f"{result.front_hv_fidelity_choice:.1f}"],
                ["R^2 accuracy", result.by_r2,
                 f"{result.fidelity_of_r2_choice:.1%}",
                 f"{result.front_hv_r2_choice:.1f}"],
            ],
            title="Ablation: model selection by fidelity vs accuracy",
        ),
    )
    assert (
        result.fidelity_of_fidelity_choice
        >= result.fidelity_of_r2_choice
    )


def test_ablation_preprocessing(benchmark):
    setup = shared_setup()
    result = benchmark.pedantic(
        ablate_preprocessing, args=(setup,), rounds=1, iterations=1
    )
    write_result(
        "ablation_preprocessing",
        format_table(
            ["library reduction", "per-op sizes", "real front HV"],
            [
                ["WMED Pareto filter (paper)",
                 str(result.pareto_sizes),
                 f"{result.pareto_front_hv:.1f}"],
                ["random subset (control)",
                 str(result.random_sizes),
                 f"{result.random_front_hv:.1f}"],
            ],
            title="Ablation: WMED-guided library pre-processing",
        ),
    )
    assert result.pareto_front_hv > 0


def test_ablation_restarts(benchmark):
    setup = shared_setup()
    result = benchmark.pedantic(
        ablate_restarts,
        args=(setup,),
        kwargs={"max_evaluations": sized(5000, 10**5)},
        rounds=1,
        iterations=1,
    )
    write_result(
        "ablation_restarts",
        format_table(
            ["search strategy", "#Pareto", "estimated front HV"],
            [
                ["hill climbing + restarts (Alg. 1)",
                 result.with_restarts_size,
                 f"{result.with_restarts_hv:.1f}"],
                ["hill climbing, no restarts",
                 result.without_restarts_size,
                 f"{result.without_restarts_hv:.1f}"],
                ["random sampling",
                 result.random_sampling_size,
                 f"{result.random_sampling_hv:.1f}"],
            ],
            title="Ablation: stagnation restarts in Algorithm 1",
        ),
    )
    assert result.with_restarts_size >= result.random_sampling_size


def test_ablation_qor_features(benchmark):
    setup = shared_setup()
    result = benchmark.pedantic(
        ablate_qor_features,
        args=(setup,),
        kwargs={"n_train": sized(300, 1500), "n_test": sized(200, 1500)},
        rounds=1,
        iterations=1,
    )
    write_result(
        "ablation_qor_features",
        format_table(
            ["QoR feature set", "test fidelity"],
            [
                ["WMED only (paper)",
                 f"{result.fidelity_wmed_only:.1%}"],
                ["WMED + error variance",
                 f"{result.fidelity_wmed_plus_variance:.1%}"],
            ],
            title="Ablation: QoR-model features (paper §4.1.2: adding "
                  "error variance does not help)",
        ),
    )
    # the paper's finding: no meaningful improvement from the variance
    assert (
        result.fidelity_wmed_plus_variance
        <= result.fidelity_wmed_only + 0.02
    )


def test_ablation_hw_features(benchmark):
    setup = shared_setup()
    result = benchmark.pedantic(
        ablate_hw_features,
        args=(setup,),
        kwargs={"n_train": sized(300, 1500), "n_test": sized(200, 1500)},
        rounds=1,
        iterations=1,
    )
    rows = [
        [features, f"{fidelity:.1%}"]
        for features, fidelity in
        result.fidelity_by_feature_set.items()
    ]
    write_result(
        "ablation_hw_features",
        format_table(
            ["hardware features per component", "area-model fidelity"],
            rows,
            title="Ablation: hardware-model feature sets "
                  "(paper: -2% without power/delay)",
        ),
    )
    assert len(result.fidelity_by_feature_set) == 3
