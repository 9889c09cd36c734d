import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.base import Regressor
from repro.ml.metrics import mean_absolute_error, r2_score, rmse
from repro.ml.model_selection import train_test_split
from repro.ml.registry import default_engines, make_engine


class TestRegistry:
    def test_thirteen_engines(self):
        names = default_engines()
        assert len(names) == 13
        assert names[0] == "Random Forest"
        assert "Stochastic Gradient Descent" in names

    def test_cli_engine_names_match_the_registry(self):
        """``search --engines`` validates against the numpy-free name
        list; it must be the registry's, in the same order."""
        from repro.settings import ENGINE_NAMES

        assert list(ENGINE_NAMES) == default_engines()

    def test_all_instantiable_and_fittable(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (40, 3))
        y = X.sum(axis=1)
        for name in default_engines():
            model = make_engine(name, seed=0)
            assert isinstance(model, Regressor)
            model.fit(X, y)
            pred = model.predict(X)
            assert pred.shape == (40,)
            assert np.all(np.isfinite(pred))

    def test_unknown_engine(self):
        with pytest.raises(ModelError):
            make_engine("Flux Capacitor")

    def test_fresh_instances(self):
        assert make_engine("Lasso") is not make_engine("Lasso")


class TestMetrics:
    def test_r2_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_r2_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        y = np.full(3, 5.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1) == 0.0

    def test_mae_rmse(self):
        y = np.array([0.0, 0.0])
        p = np.array([3.0, 4.0])
        assert mean_absolute_error(y, p) == 3.5
        assert rmse(y, p) == pytest.approx(np.sqrt(12.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            r2_score(np.array([]), np.array([]))


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, 0.3, rng=0)
        assert len(X_te) == 3 and len(X_tr) == 7
        assert len(y_te) == 3 and len(y_tr) == 7

    def test_partition(self):
        X = np.arange(10).reshape(10, 1)
        y = np.arange(10)
        X_tr, X_te, _, _ = train_test_split(X, y, 0.4, rng=1)
        together = sorted(X_tr[:, 0].tolist() + X_te[:, 0].tolist())
        assert together == list(range(10))

    def test_rows_stay_aligned(self):
        X = np.arange(10).reshape(10, 1)
        y = np.arange(10) * 2
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, 0.5, rng=2)
        assert np.array_equal(y_tr, X_tr[:, 0] * 2)
        assert np.array_equal(y_te, X_te[:, 0] * 2)

    def test_invalid_fraction(self):
        X = np.zeros((4, 1))
        y = np.zeros(4)
        with pytest.raises(ValueError):
            train_test_split(X, y, 0.0)
        with pytest.raises(ValueError):
            train_test_split(X, y, 1.0)

    def test_mismatched_rows(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), np.zeros(5), 0.5)
