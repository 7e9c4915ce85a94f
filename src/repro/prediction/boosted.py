"""Stagewise gradient boosting over regression trees.

Least-squares boosting: each stage fits a shallow tree to the current
residuals and contributes ``learning_rate`` of its prediction.  With a
squared loss the negative gradient *is* the residual, so no separate
gradient machinery is needed.  Row subsampling (stochastic gradient
boosting) decorrelates the stages.
"""

from __future__ import annotations

import numpy as np

from ..errors import PredictionError
from .tree import FeatureBinner, RegressionTree, feature_codes

__all__ = ["GradientBoostedRegressor"]


class GradientBoostedRegressor:
    """Gradient-boosted regression trees with squared loss."""

    def __init__(
        self,
        num_trees: int = 120,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 8,
        subsample: float = 0.8,
        max_bins: int = 64,
    ) -> None:
        if num_trees < 1:
            raise PredictionError("num_trees must be >= 1")
        if not 0 < learning_rate <= 1:
            raise PredictionError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1:
            raise PredictionError("subsample must be in (0, 1]")
        self.num_trees = num_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self._binner = FeatureBinner(max_bins)
        self._trees: list[RegressionTree] = []
        self._base: float = 0.0

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> "GradientBoostedRegressor":
        """Train the ensemble.

        ``rng`` drives row subsampling; omit it for deterministic
        full-sample boosting.
        """
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise PredictionError("features and targets must align")
        if len(y) < 2 * self.min_samples_leaf:
            raise PredictionError(
                f"need at least {2 * self.min_samples_leaf} samples"
            )
        binned = self._binner.fit(X).transform(X)
        # One code matrix for every round; each takes its rows' columns.
        codes, width = feature_codes(binned)
        self._base = float(y.mean())
        prediction = np.full(len(y), self._base)
        self._trees = []
        n = len(y)
        sample_size = max(2 * self.min_samples_leaf, int(self.subsample * n))
        for _ in range(self.num_trees):
            residuals = y - prediction
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            if rng is not None and sample_size < n:
                rows = rng.choice(n, size=sample_size, replace=False)
                tree.fit_codes(codes.take(rows, axis=1), width, residuals[rows])
            else:
                tree.fit_codes(codes, width, residuals)
            prediction += self.learning_rate * tree.predict(binned)
            self._trees.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for a feature matrix."""
        if not self._trees:
            raise PredictionError("model is not fitted")
        X = np.asarray(features, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        binned = self._binner.transform(X)
        out = np.full(len(X), self._base)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(binned)
        return out
