import numpy as np
import pytest

from repro.core.engine import EvaluationEngine
from repro.core.modeling import (
    EstimationModel,
    build_training_set,
    fit_engines,
    naive_model,
    select_best_model,
)
from repro.errors import ModelError


@pytest.fixture(scope="module")
def train_test(sobel_space, sobel_evaluator):
    train = build_training_set(sobel_space, sobel_evaluator, 60, rng=0)
    test = build_training_set(sobel_space, sobel_evaluator, 40, rng=1)
    return train, test


class TestEvaluator:
    def test_exact_configuration_perfect_qor(self, sobel_space,
                                             sobel_evaluator):
        config = sobel_space.exact_configuration()
        result = sobel_evaluator.evaluate(sobel_space, config)
        assert result.qor == pytest.approx(1.0)
        assert result.area > 0
        assert result.energy == pytest.approx(
            result.power * result.delay
        )

    def test_approximation_degrades_qor(self, sobel_space,
                                        sobel_evaluator):
        # choose the highest-wmed candidate everywhere
        config = tuple(
            int(np.argmax(w)) for w in sobel_space.wmeds
        )
        result = sobel_evaluator.evaluate(sobel_space, config)
        assert result.qor < 1.0

    def test_empty_images_rejected(self, sobel):
        with pytest.raises(ValueError):
            EvaluationEngine(sobel, [])

    def test_run_count(self, sobel, small_images):
        ev = EvaluationEngine(sobel, small_images)
        assert ev.run_count == len(small_images)

    def test_scenarios_multiply_runs(self, small_images):
        from repro.accelerators import GenericGaussianFilter, gaussian_kernel_weights

        acc = GenericGaussianFilter()
        scen = [acc.kernel_extra(gaussian_kernel_weights(s))
                for s in (0.4, 0.6)]
        ev = EvaluationEngine(acc, small_images, scen)
        assert ev.run_count == 2 * len(small_images)


class TestTrainingSet:
    def test_build(self, train_test):
        train, _ = train_test
        assert len(train) == 60
        assert train.qor.shape == (60,)
        assert np.all(train.area > 0)
        assert np.all(train.qor <= 1.0 + 1e-9)

    def test_energy_property(self, train_test):
        train, _ = train_test
        assert np.allclose(train.energy, train.power * train.delay)

    def test_target_lookup(self, train_test):
        train, _ = train_test
        assert train.target("qor") is train.qor
        assert train.target("area") is train.area
        with pytest.raises(ModelError):
            train.target("speed")

    def test_invalid_count(self, sobel_space, sobel_evaluator):
        with pytest.raises(ModelError):
            build_training_set(sobel_space, sobel_evaluator, 0)


class TestFitEngines:
    def test_reports_complete(self, sobel_space, train_test):
        train, test = train_test
        reports = fit_engines(
            sobel_space, train, test, target="qor",
            engines=["K-Neighbors", "Bayesian Ridge"],
        )
        names = [r.name for r in reports]
        assert names == ["K-Neighbors", "Bayesian Ridge", "Naive model"]
        for r in reports:
            assert 0.0 <= r.fidelity_train <= 1.0
            assert 0.0 <= r.fidelity_test <= 1.0
            assert r.fit_seconds >= 0.0

    def test_select_best_uses_test_fidelity(self, sobel_space,
                                            train_test):
        train, test = train_test
        reports = fit_engines(
            sobel_space, train, test, target="area",
            engines=["K-Neighbors"],
        )
        best = select_best_model(reports)
        assert best.fidelity_test == max(
            r.fidelity_test for r in reports
        )

    def test_select_empty_rejected(self):
        with pytest.raises(ModelError):
            select_best_model([])

    def test_naive_qor_model_is_negative_wmed_sum(self, sobel_space,
                                                  train_test):
        train, _ = train_test
        model = naive_model(sobel_space, "qor")
        model.fit(train.configs, train.qor)
        X = sobel_space.qor_features(train.configs)
        assert np.allclose(model.predict(train.configs), -X.sum(axis=1))

    def test_naive_area_model_is_area_sum(self, sobel_space, train_test):
        train, _ = train_test
        model = naive_model(sobel_space, "area")
        model.fit(train.configs, train.area)
        X = sobel_space.hw_features(train.configs)
        cols = sobel_space.area_columns()
        assert np.allclose(
            model.predict(train.configs), X[:, cols].sum(axis=1)
        )

    def test_estimation_model_predict_one(self, sobel_space, train_test):
        train, test = train_test
        model = naive_model(sobel_space, "area")
        model.fit(train.configs, train.area)
        single = model.predict_one(train.configs[0])
        assert single == pytest.approx(
            model.predict([train.configs[0]])[0]
        )

    def test_invalid_target(self, sobel_space):
        from repro.ml.neighbors import KNeighborsRegressor

        with pytest.raises(ModelError):
            EstimationModel(
                "x", KNeighborsRegressor(), sobel_space, "speed"
            )
