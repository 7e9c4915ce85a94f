"""Execution-time prediction substrate.

Reimplements the boosted-tree execution-time predictor of [21] (used by
Pred, TP and TPC): histogram-based CART regression trees combined with
stagewise gradient boosting, trained on pre-execution query features
(keyword count, IDF statistics, posting-list lengths).  Accuracy is
*measured* — L1 error plus precision/recall of the induced long-query
classifier — and matched against the paper's operating point of
Section 2.5 (L1 ~ 14 ms, recall 0.86, precision 0.91 at 80 ms).
"""

from .tree import RegressionTree
from .boosted import GradientBoostedRegressor
from .features import QUERY_FEATURE_NAMES, query_features, query_feature_matrix
from .predictor import ExecutionTimePredictor, PredictorReport

__all__ = [
    "RegressionTree",
    "GradientBoostedRegressor",
    "QUERY_FEATURE_NAMES",
    "query_features",
    "query_feature_matrix",
    "ExecutionTimePredictor",
    "PredictorReport",
]
