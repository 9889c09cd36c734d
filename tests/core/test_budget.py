"""Unit tests of the evaluation-budget ledger and metered estimator."""

import numpy as np
import pytest

from repro.core.budget import EvaluationBudget, MeteredEstimator
from repro.errors import BudgetExceededError, DSEError


class _Flat:
    """Fake model: predicts zeros, remembers nothing."""

    def predict(self, configs):
        return np.zeros(len(configs))


class TestEvaluationBudget:
    def test_grant_and_charge(self):
        budget = EvaluationBudget(10)
        assert budget.grant(4) == 4
        budget.charge(4)
        assert budget.spent == 4
        assert budget.remaining == 6
        assert budget.grant(100) == 6
        budget.charge(6)
        assert budget.exhausted
        assert budget.grant(1) == 0

    def test_charge_over_budget_raises(self):
        budget = EvaluationBudget(3)
        budget.charge(3)
        with pytest.raises(BudgetExceededError):
            budget.charge(1)
        assert budget.spent == 3  # failed charge did not commit

    def test_unlimited_budget_tracks_spend(self):
        budget = EvaluationBudget(None)
        budget.charge(1_000_000)
        assert budget.spent == 1_000_000
        assert not budget.exhausted
        assert budget.grant(7) == 7

    def test_invalid_values(self):
        with pytest.raises(DSEError):
            EvaluationBudget(0)
        budget = EvaluationBudget(5)
        with pytest.raises(DSEError):
            budget.grant(-1)
        with pytest.raises(DSEError):
            budget.charge(-1)


class TestMeteredEstimator:
    def test_counts_every_configuration(self):
        budget = EvaluationBudget(10)
        estimator = MeteredEstimator(_Flat(), _Flat(), budget)
        out = estimator.estimate([(0,), (1,), (2,)])
        assert out.shape == (3, 2)
        assert estimator.count == 3
        assert budget.spent == 3

    def test_refuses_overdraw_before_model_call(self):
        class Exploding:
            def predict(self, configs):  # pragma: no cover - must not run
                raise AssertionError("model called past the budget")

        budget = EvaluationBudget(2)
        estimator = MeteredEstimator(Exploding(), Exploding(), budget)
        with pytest.raises(BudgetExceededError):
            estimator.estimate([(0,), (1,), (2,)])
        assert budget.spent == 0

    def test_empty_batch_is_free(self):
        budget = EvaluationBudget(1)
        estimator = MeteredEstimator(_Flat(), _Flat(), budget)
        assert estimator.estimate([]).shape == (0, 2)
        assert budget.spent == 0


class TestBudgetConcurrency:
    """The serving layer shares one budget across threads; spend must
    land on the nominal total exactly — never past it, never short of
    what was granted."""

    def test_hammered_charge_never_overspends(self):
        import threading

        budget = EvaluationBudget(1_000)
        overdrafts = []

        def worker():
            for _ in range(100):
                try:
                    budget.charge(1)
                except BudgetExceededError:
                    overdrafts.append(1)

        threads = [threading.Thread(target=worker) for _ in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 20 x 100 = 2000 attempted, cap 1000: exactly 1000 land.
        assert budget.spent == 1_000
        assert len(overdrafts) == 1_000
        assert budget.exhausted

    def test_budget_pickles_without_lock(self):
        import pickle

        budget = EvaluationBudget(50)
        budget.charge(20)
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.total == 50
        assert clone.spent == 20
        clone.charge(30)  # the rebuilt lock works
        with pytest.raises(BudgetExceededError):
            clone.charge(1)

    def test_metered_estimator_hammered_spend_matches_count(self):
        import threading

        budget = EvaluationBudget(600)
        estimator = MeteredEstimator(_Flat(), _Flat(), budget)
        rejected = []

        def worker():
            for _ in range(50):
                try:
                    estimator.estimate([(0,), (1,)])
                except BudgetExceededError:
                    rejected.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 8 x 50 x 2 = 800 attempted; exactly the 600 cap lands, and
        # the estimator's own count agrees with the ledger.
        assert budget.spent == 600
        assert estimator.count == 600
        assert len(rejected) == 100

    def test_metered_estimator_pickles_without_lock(self):
        import pickle

        estimator = MeteredEstimator(
            _Flat(), _Flat(), EvaluationBudget(10)
        )
        estimator.estimate([(0,)])
        clone = pickle.loads(pickle.dumps(estimator))
        assert clone.count == 1
        clone.estimate([(1,)])
        assert clone.budget.spent == 2
