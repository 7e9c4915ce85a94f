"""Tests for the prediction substrate: trees, boosting, predictor."""

import numpy as np
import pytest

from repro.config import PredictorConfig
from repro.errors import PredictionError
from repro.prediction.boosted import GradientBoostedRegressor
from repro.prediction.predictor import ExecutionTimePredictor
from repro.prediction.tree import FeatureBinner, RegressionTree


def toy_regression(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 3))
    y = 3.0 * X[:, 0] + np.sin(4 * X[:, 1]) + 0.1 * rng.standard_normal(n)
    return X, y


class TestFeatureBinner:
    def test_bins_are_small_ints(self):
        X, _ = toy_regression()
        binner = FeatureBinner(max_bins=32)
        binned = binner.fit(X).transform(X)
        assert binned.dtype == np.uint8
        assert binned.max() < 32

    def test_monotone_in_feature_value(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        binner = FeatureBinner(16)
        codes = binner.fit(X).transform(X)[:, 0]
        assert all(b >= a for a, b in zip(codes, codes[1:]))

    def test_transform_before_fit_rejected(self):
        with pytest.raises(PredictionError):
            FeatureBinner().transform(np.ones((3, 2)))

    def test_feature_count_mismatch_rejected(self):
        X, _ = toy_regression()
        binner = FeatureBinner().fit(X)
        with pytest.raises(PredictionError):
            binner.transform(np.ones((3, 5)))

    def test_bad_max_bins_rejected(self):
        with pytest.raises(PredictionError):
            FeatureBinner(max_bins=1)


class TestRegressionTree:
    def test_fits_a_step_function_exactly(self):
        X = np.array([[0.0], [0.1], [0.9], [1.0]] * 10)
        y = np.array([1.0, 1.0, 5.0, 5.0] * 10)
        binner = FeatureBinner(8).fit(X)
        tree = RegressionTree(max_depth=2, min_samples_leaf=2)
        tree.fit(binner.transform(X), y)
        pred = tree.predict(binner.transform(X))
        np.testing.assert_allclose(pred, y)

    def test_depth_zero_like_behaviour_on_constant_target(self):
        X = np.random.default_rng(0).uniform(size=(50, 2))
        y = np.full(50, 3.0)
        binner = FeatureBinner().fit(X)
        tree = RegressionTree().fit(binner.transform(X), y)
        assert np.allclose(tree.predict(binner.transform(X)), 3.0)

    def test_min_samples_leaf_respected(self):
        X, y = toy_regression(n=40)
        binner = FeatureBinner().fit(X)
        tree = RegressionTree(max_depth=10, min_samples_leaf=20)
        tree.fit(binner.transform(X), y)
        assert len(tree._nodes) <= 3  # at most one split possible

    def test_predict_before_fit_rejected(self):
        with pytest.raises(PredictionError):
            RegressionTree().predict(np.zeros((2, 2), dtype=np.uint8))

    def test_reduces_variance_versus_mean(self):
        X, y = toy_regression()
        binner = FeatureBinner().fit(X)
        tree = RegressionTree(max_depth=4).fit(binner.transform(X), y)
        pred = tree.predict(binner.transform(X))
        assert np.var(y - pred) < 0.5 * np.var(y - y.mean())


def staged_l1(gbrt, features, targets) -> list[float]:
    """Mean-absolute error of a fitted ensemble after each boosting stage."""
    binned = gbrt._binner.transform(features)
    out = np.full(len(features), gbrt._base)
    errors = []
    for tree in gbrt._trees:
        out += gbrt.learning_rate * tree.predict(binned)
        errors.append(float(np.abs(out - targets).mean()))
    return errors


class TestBoosting:
    def test_improves_over_single_tree(self):
        X, y = toy_regression()
        gbrt = GradientBoostedRegressor(num_trees=50, learning_rate=0.2)
        gbrt.fit(X, y)
        errors = staged_l1(gbrt, X, y)
        assert errors[-1] < errors[0] * 0.7

    def test_staged_errors_mostly_decreasing(self):
        X, y = toy_regression()
        gbrt = GradientBoostedRegressor(num_trees=30, learning_rate=0.3)
        gbrt.fit(X, y)
        errors = staged_l1(gbrt, X, y)
        assert errors[-1] == min(errors)

    def test_generalises_to_held_out_data(self):
        X, y = toy_regression(seed=1)
        X_test, y_test = toy_regression(seed=2)
        gbrt = GradientBoostedRegressor(num_trees=80, learning_rate=0.2)
        gbrt.fit(X, y, rng=np.random.default_rng(0))
        l1 = np.abs(gbrt.predict(X_test) - y_test).mean()
        baseline = np.abs(y_test.mean() - y_test).mean()
        assert l1 < 0.4 * baseline

    def test_subsampling_is_reproducible_with_seed(self):
        X, y = toy_regression(n=500)
        a = GradientBoostedRegressor(num_trees=10, subsample=0.5)
        a.fit(X, y, rng=np.random.default_rng(7))
        b = GradientBoostedRegressor(num_trees=10, subsample=0.5)
        b.fit(X, y, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(PredictionError):
            GradientBoostedRegressor().predict(np.ones((2, 3)))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(PredictionError):
            GradientBoostedRegressor().fit(np.ones((10, 2)), np.ones(5))


class TestExecutionTimePredictor:
    def test_trains_and_reports_sane_accuracy(self):
        rng = np.random.default_rng(3)
        n = 3000
        X = rng.uniform(1, 10, size=(n, 4))
        demand = np.exp(0.5 * X[:, 0]) * rng.lognormal(0, 0.2, n)
        predictor = ExecutionTimePredictor(
            PredictorConfig(num_trees=60, max_depth=3)
        )
        predictor.fit(X[: n // 2], demand[: n // 2], rng=rng)
        report = predictor.evaluate(predictor.predict(X[n // 2 :]), demand[n // 2 :])
        assert report.num_eval == n // 2
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert report.l1_error_ms < np.abs(demand - demand.mean()).mean()

    def test_predictions_positive(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(200, 2))
        y = rng.uniform(0.5, 5.0, size=200)
        predictor = ExecutionTimePredictor(
            PredictorConfig(num_trees=10, max_depth=2)
        )
        predictor.fit(X, y, rng=rng)
        assert (predictor.predict(X) > 0).all()

    def test_rejects_nonpositive_demands(self):
        predictor = ExecutionTimePredictor()
        with pytest.raises(PredictionError):
            predictor.fit(np.ones((50, 2)), np.zeros(50))

