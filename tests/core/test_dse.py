import numpy as np
import pytest

from repro.core.budget import EvaluationBudget
from repro.core.dse import (
    exhaustive_search,
    heuristic_pareto_construction,
    random_sampling,
    uniform_selection,
)
from repro.core.modeling import build_training_set, fit_engines, select_best_model
from repro.core.nsga2 import nsga2_search
from repro.core.pareto import dominates, pareto_front_indices
from repro.errors import DSEError


@pytest.fixture(scope="module")
def models(sobel_space, sobel_evaluator):
    train = build_training_set(sobel_space, sobel_evaluator, 60, rng=0)
    test = build_training_set(sobel_space, sobel_evaluator, 30, rng=1)
    qor = select_best_model(
        fit_engines(sobel_space, train, test, target="qor",
                    engines=["K-Neighbors"])
    ).model
    hw = select_best_model(
        fit_engines(sobel_space, train, test, target="area",
                    engines=["K-Neighbors"])
    ).model
    return qor, hw


class TestHeuristicConstruction:
    def test_result_structure(self, sobel_space, models):
        qor, hw = models
        result = heuristic_pareto_construction(
            sobel_space, qor, hw, max_evaluations=500, rng=0
        )
        assert result.evaluations <= 500
        assert len(result.configs) == result.points.shape[0]
        assert result.inserts >= len(result.configs)

    def test_archive_mutually_nondominated(self, sobel_space, models):
        qor, hw = models
        result = heuristic_pareto_construction(
            sobel_space, qor, hw, max_evaluations=600, rng=1
        )
        minimised = np.stack(
            [-result.points[:, 0], result.points[:, 1]], axis=1
        )
        for i in range(len(minimised)):
            for j in range(len(minimised)):
                assert not dominates(minimised[i], minimised[j])

    def test_deterministic(self, sobel_space, models):
        """Same seed => identical DSEResult: configs, points, counters."""
        qor, hw = models
        a = heuristic_pareto_construction(
            sobel_space, qor, hw, max_evaluations=300, rng=9
        )
        b = heuristic_pareto_construction(
            sobel_space, qor, hw, max_evaluations=300, rng=9
        )
        assert a.configs == b.configs
        assert np.array_equal(a.points, b.points)
        assert (a.evaluations, a.inserts, a.restarts) == (
            b.evaluations, b.inserts, b.restarts
        )

    def test_deterministic_from_integer_seed_object(self, sobel_space,
                                                    models):
        """Passing the seed as an int must not share hidden RNG state."""
        qor, hw = models
        runs = [
            heuristic_pareto_construction(
                sobel_space, qor, hw, max_evaluations=250, rng=1234
            )
            for _ in range(2)
        ]
        assert runs[0].configs == runs[1].configs
        assert np.array_equal(runs[0].points, runs[1].points)

    def test_more_evals_no_fewer_points(self, sobel_space, models):
        qor, hw = models
        small = heuristic_pareto_construction(
            sobel_space, qor, hw, max_evaluations=200, rng=2
        )
        large = heuristic_pareto_construction(
            sobel_space, qor, hw, max_evaluations=2000, rng=2
        )
        assert len(large) >= len(small) * 0.8

    def test_invalid_params(self, sobel_space, models):
        qor, hw = models
        with pytest.raises(DSEError):
            heuristic_pareto_construction(
                sobel_space, qor, hw, max_evaluations=0
            )
        with pytest.raises(DSEError):
            heuristic_pareto_construction(
                sobel_space, qor, hw, stagnation_limit=0
            )


class TestRandomSampling:
    def test_front_only(self, sobel_space, models):
        qor, hw = models
        result = random_sampling(
            sobel_space, qor, hw, max_evaluations=400, rng=0
        )
        assert result.evaluations == 400
        minimised = np.stack(
            [-result.points[:, 0], result.points[:, 1]], axis=1
        )
        assert len(pareto_front_indices(minimised)) == len(result)


class TestUniformSelection:
    def test_configs_valid_and_unique(self, sobel_space):
        configs = uniform_selection(sobel_space, 12)
        assert len(set(configs)) == len(configs)
        for config in configs:
            sobel_space.validate_configuration(config)

    def test_level_zero_is_most_accurate(self, sobel_space):
        configs = uniform_selection(sobel_space, 10)
        first = sobel_space.qor_features([configs[0]])
        assert np.allclose(first, 0.0)

    def test_invalid_count(self, sobel_space):
        with pytest.raises(DSEError):
            uniform_selection(sobel_space, 0)


class TestExhaustive:
    def test_matches_batch_front(self, sobel_space, models):
        qor, hw = models
        space = sobel_space
        if space.size() > 50_000:
            pytest.skip("space too large for exhaustive reference")
        result = exhaustive_search(space, qor, hw, batch_size=7000)
        assert result.evaluations == space.size()
        minimised = np.stack(
            [-result.points[:, 0], result.points[:, 1]], axis=1
        )
        assert len(pareto_front_indices(minimised)) == len(result)

    def test_heuristic_front_dominated_by_optimal(
        self, sobel_space, models
    ):
        """No heuristic archive point may dominate the exhaustive front
        (sanity of 'optimal')."""
        qor, hw = models
        space = sobel_space
        if space.size() > 50_000:
            pytest.skip("space too large for exhaustive reference")
        optimal = exhaustive_search(space, qor, hw)
        heur = heuristic_pareto_construction(
            space, qor, hw, max_evaluations=300, rng=0
        )
        opt_min = np.stack(
            [-optimal.points[:, 0], optimal.points[:, 1]], axis=1
        )
        for point in np.stack(
            [-heur.points[:, 0], heur.points[:, 1]], axis=1
        ):
            assert not any(
                dominates(point, opt_point) for opt_point in opt_min
            )


class CountingModel:
    """Estimation-model wrapper that counts every configuration predicted.

    The ground truth of the budget-accounting contract: whatever a
    search reports as ``evaluations`` must equal the number of
    configurations that actually reached ``predict``.
    """

    def __init__(self, model):
        self.model = model
        self.configs_predicted = 0

    def predict(self, configs):
        self.configs_predicted += len(configs)
        return self.model.predict(configs)


@pytest.fixture()
def count_models(models):
    """Factory: fresh counting wrappers around the fitted models."""

    def make():
        qor, hw = models
        return CountingModel(qor), CountingModel(hw)

    return make


class TestHillClimberAccounting:
    """Regression: discarded batch tails must be counted."""

    def test_never_exceeds_max_evaluations(self, sobel_space,
                                           count_models):
        cq, ch = count_models()
        result = heuristic_pareto_construction(
            sobel_space, cq, ch, max_evaluations=257, rng=0,
            batch_size=64,
        )
        # Every configuration sent to the models is accounted for —
        # including the batch tails discarded after accepted moves and
        # restarts.
        assert cq.configs_predicted == result.evaluations
        assert ch.configs_predicted == result.evaluations
        assert cq.configs_predicted <= 257

    def test_spends_budget_exactly(self, sobel_space, count_models):
        cq, ch = count_models()
        result = heuristic_pareto_construction(
            sobel_space, cq, ch, max_evaluations=300, rng=3,
        )
        assert result.evaluations == 300
        assert cq.configs_predicted == 300

    def test_many_accepted_moves_still_exact(self, sobel_space,
                                             count_models):
        """Small batches + frequent inserts maximise discarded tails."""
        cq, ch = count_models()
        result = heuristic_pareto_construction(
            sobel_space, cq, ch, max_evaluations=199, rng=1,
            batch_size=8, stagnation_limit=3,
        )
        assert cq.configs_predicted == result.evaluations == 199


def _hill(space, qor, hw, budget):
    return heuristic_pareto_construction(
        space, qor, hw, rng=2, budget=budget,
    )


def _random(space, qor, hw, budget):
    return random_sampling(
        space, qor, hw, max_evaluations=budget.total, rng=2,
        budget=budget,
    )


def _exhaustive(space, qor, hw, budget):
    return exhaustive_search(space, qor, hw, batch_size=64, budget=budget)


def _nsga2(space, qor, hw, budget):
    return nsga2_search(
        space, qor, hw, population_size=20, generations=14, rng=2,
        budget=budget,
    )


class TestSearchAccounting:
    """Property: evaluations == true predict counts for every search
    under a shared :class:`EvaluationBudget`."""

    @pytest.mark.parametrize(
        "search,budget",
        [
            (_hill, 300),
            (_nsga2, 300),
            (_random, 200),
            (_exhaustive, 150),
        ],
        ids=["hill-300", "nsga2-300", "random-200", "exhaustive-150"],
    )
    def test_evaluations_match_model_calls(
        self, search, budget, sobel_space, count_models
    ):
        cq, ch = count_models()
        ledger = EvaluationBudget(budget)
        result = search(sobel_space, cq, ch, ledger)
        assert cq.configs_predicted == result.evaluations
        assert ch.configs_predicted == result.evaluations
        assert result.evaluations == ledger.spent <= budget

    def test_hill_climber_rejects_unlimited_budget(self, sobel_space,
                                                   models):
        """The climb stops only when the budget runs out, so an
        uncapped budget would never end — fail loudly instead."""
        qor, hw = models
        with pytest.raises(DSEError, match="finite"):
            heuristic_pareto_construction(
                sobel_space, qor, hw, rng=0, budget=EvaluationBudget(),
            )

    def test_exhaustive_caps_at_space_size(self, sobel_space,
                                           count_models):
        if sobel_space.size() > 50_000:
            pytest.skip("space too large for exhaustive reference")
        cq, ch = count_models()
        result = exhaustive_search(
            sobel_space, cq, ch, budget=EvaluationBudget(10**9),
        )
        assert result.evaluations == sobel_space.size()
        assert cq.configs_predicted == result.evaluations
