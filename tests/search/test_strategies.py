"""Budget-exactness of every strategy, verified against real call counts.

The acceptance bar of the accounting bugfix: with a counting-wrapper
model, each strategy's reported ``evaluations`` equals the number of
configurations passed to ``predict``, and the hill climber never issues
more model calls than ``max_evaluations``.
"""

import pytest

from repro.core.budget import EvaluationBudget
from repro.core.dse import heuristic_pareto_construction
from repro.errors import DSEError
from repro.search import PortfolioRunner, make_strategy


class TestHillClimberAccounting:
    """Regression: discarded batch tails must be counted (issue headline)."""

    def test_never_exceeds_max_evaluations(self, sobel_space,
                                           count_models):
        cq, ch = count_models()
        result = heuristic_pareto_construction(
            sobel_space, cq, ch, max_evaluations=257, rng=0,
            batch_size=64,
        )
        # Every configuration sent to the models is accounted for —
        # including the batch tails discarded after accepted moves and
        # restarts, which the seed implementation under-counted.
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


class TestStrategyAccounting:
    """Property: evaluations == true predict counts for all strategies."""

    @pytest.mark.parametrize(
        "spec,budget",
        [
            ("hill", 300),
            ("nsga2:population_size=20", 300),
            ("random", 200),
            ("exhaustive:batch_size=64", 150),
        ],
    )
    def test_evaluations_match_model_calls(
        self, spec, budget, sobel_space, count_models
    ):
        cq, ch = count_models()
        strategy = make_strategy(spec)
        result = strategy.run(
            sobel_space, cq, ch, budget=EvaluationBudget(budget), rng=2,
        )
        assert cq.configs_predicted == result.evaluations
        assert ch.configs_predicted == result.evaluations
        assert result.evaluations <= budget

    def test_portfolio_evaluations_exact(self, sobel_space,
                                         count_models):
        cq, ch = count_models()
        result = PortfolioRunner(
            sobel_space, cq, ch,
            strategies=("hill", "nsga2:population_size=12", "random"),
            rounds=2, seed=5, workers=1,
        ).run(401)
        # The portfolio spends the requested budget to the last call
        # (strategies with quantised spends are topped up by random
        # sampling) and every call is accounted.
        assert result.evaluations == 401
        assert cq.configs_predicted == 401
        assert ch.configs_predicted == 401

    def test_nsga2_tiny_slice_falls_back_to_sampling(
        self, sobel_space, count_models
    ):
        cq, ch = count_models()
        strategy = make_strategy("nsga2:population_size=40")
        result = strategy.run(
            sobel_space, cq, ch, budget=EvaluationBudget(5), rng=0,
        )
        assert result.evaluations == 5 == cq.configs_predicted

    def test_unlimited_budget_rejected(self, sobel_space, models):
        """Strategies size work from the budget; uncapped would hang."""
        qor, hw = models
        for spec in ("hill", "nsga2", "random"):
            with pytest.raises(DSEError, match="finite"):
                make_strategy(spec).run(
                    sobel_space, qor, hw, budget=EvaluationBudget(),
                    rng=0,
                )

    def test_exhaustive_caps_at_space_size(self, sobel_space,
                                           count_models):
        if sobel_space.size() > 50_000:
            pytest.skip("space too large for exhaustive reference")
        cq, ch = count_models()
        strategy = make_strategy("exhaustive")
        result = strategy.run(
            sobel_space, cq, ch,
            budget=EvaluationBudget(10**9), rng=0,
        )
        assert result.evaluations == sobel_space.size()
        assert cq.configs_predicted == result.evaluations


class TestMakeStrategy:
    def test_known_names(self):
        for spec, name in (
            ("hill", "hill"),
            ("nsga2", "nsga2"),
            ("random", "random"),
            ("exhaustive", "exhaustive"),
        ):
            assert make_strategy(spec).name == name

    def test_spec_arguments(self):
        strategy = make_strategy(
            "hill:stagnation_limit=7,batch_size=16"
        )
        assert strategy.stagnation_limit == 7
        assert strategy.batch_size == 16
        assert strategy.spec == "hill:stagnation_limit=7,batch_size=16"

    def test_unknown_name_and_bad_args(self):
        with pytest.raises(DSEError, match="unknown search strategy"):
            make_strategy("simulated-annealing")
        with pytest.raises(DSEError, match="bad arguments"):
            make_strategy("hill:frobnicate=1")
        with pytest.raises(DSEError, match="malformed"):
            make_strategy("hill:oops")
