"""The execution-time predictor and its accuracy report.

Wraps the gradient-boosted regressor with the paper's two evaluation
lenses (Section 2.5): the regressor view (L1 error in ms) and the
classifier view (precision and recall of "is this query long?" at the
80 ms ``LONG_QUERY_MS`` threshold).  The predictor sees only index
statistics; its imperfect operating point comes from the ranking cost
those statistics do not capture (``hidden_cost_sigma`` of the search
workload), not from noise added here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import LEARNING_RATE, LONG_QUERY_MS, MIN_SAMPLES_LEAF, PredictorConfig
from ..errors import PredictionError
from .boosted import GradientBoostedRegressor

__all__ = ["ExecutionTimePredictor", "PredictorReport"]


@dataclass(frozen=True)
class PredictorReport:
    """Accuracy of a trained predictor on held-out queries."""

    l1_error_ms: float
    precision: float
    recall: float
    long_threshold_ms: float
    num_eval: int


class ExecutionTimePredictor:
    """Boosted-tree predictor of sequential query execution time."""

    def __init__(self, config: PredictorConfig | None = None) -> None:
        self.config = config if config is not None else PredictorConfig()
        self._model = GradientBoostedRegressor(
            num_trees=self.config.num_trees,
            learning_rate=LEARNING_RATE,
            max_depth=self.config.max_depth,
            min_samples_leaf=MIN_SAMPLES_LEAF,
            subsample=self.config.subsample,
        )

    def fit(
        self,
        features: np.ndarray,
        demands_ms: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> "ExecutionTimePredictor":
        """Train on query features and measured sequential demands.

        Targets are fit in log space (demands span two orders of
        magnitude; log targets keep short-query accuracy from being
        drowned out) and exponentiated at prediction time.
        """
        y = np.asarray(demands_ms, dtype=np.float64)
        if (y <= 0).any():
            raise PredictionError("demands must be positive")
        self._model.fit(np.asarray(features, dtype=np.float64), np.log(y), rng=rng)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted execution time (ms) for a feature matrix."""
        X = np.asarray(features, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return np.exp(self._model.predict(X))

    @staticmethod
    def evaluate(
        predictions_ms: np.ndarray, demands_ms: np.ndarray
    ) -> PredictorReport:
        """L1 error plus long-query precision/recall of :meth:`predict`'s
        output on held-out queries against their measured demands."""
        y = np.asarray(demands_ms, dtype=np.float64)
        predictions = np.asarray(predictions_ms, dtype=np.float64)
        if len(predictions) != len(y):
            raise PredictionError("predictions and demands must align")
        predicted_long = predictions > LONG_QUERY_MS
        actual_long = y > LONG_QUERY_MS
        true_positive = int((predicted_long & actual_long).sum())
        precision = (
            true_positive / predicted_long.sum() if predicted_long.any() else 1.0
        )
        recall = true_positive / actual_long.sum() if actual_long.any() else 1.0
        return PredictorReport(
            l1_error_ms=float(np.abs(predictions - y).mean()),
            precision=float(precision),
            recall=float(recall),
            long_threshold_ms=LONG_QUERY_MS,
            num_eval=len(y),
        )
