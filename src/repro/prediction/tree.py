"""Histogram-based CART regression tree (numpy only).

Features are pre-binned into at most 256 quantile bins; each split
search accumulates per-bin sums with ``np.bincount`` and scans the
variance-gain of every bin boundary — the same strategy LightGBM-class
learners use, compact enough to implement and verify from scratch.

Both hot paths are vectorised across features and nodes: one offset
``bincount`` builds every feature's histogram of a node at once, and
prediction routes all rows through flat node arrays, one ``np.where``
per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PredictionError

__all__ = ["FeatureBinner", "RegressionTree"]


class FeatureBinner:
    """Maps raw feature columns to small integer bins by quantile."""

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 256:
            raise PredictionError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        self._edges: list[np.ndarray] = []

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return bool(self._edges)

    def fit(self, features: np.ndarray) -> "FeatureBinner":
        """Learn per-feature quantile bin edges."""
        X = _as_matrix(features)
        self._edges = []
        quantiles = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        for j in range(X.shape[1]):
            edges = np.unique(np.quantile(X[:, j], quantiles))
            self._edges.append(edges)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Bin a feature matrix into uint8 codes."""
        if not self._edges:
            raise PredictionError("binner is not fitted")
        X = _as_matrix(features)
        if X.shape[1] != len(self._edges):
            raise PredictionError(
                f"expected {len(self._edges)} features, got {X.shape[1]}"
            )
        binned = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self._edges):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return binned


@dataclass(frozen=True)
class _Node:
    """One tree node; leaves carry a value, internal nodes a split."""

    feature: int
    threshold_bin: int
    left: int
    right: int
    value: float
    is_leaf: bool


class RegressionTree:
    """A depth-bounded least-squares regression tree on binned features."""

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 8) -> None:
        if max_depth < 1:
            raise PredictionError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise PredictionError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._nodes: list[_Node] = []
        #: ``_nodes`` as parallel (feature, threshold, left, right, value)
        #: arrays for routing; leaves point to themselves.
        self._flat: tuple[np.ndarray, ...] = ()

    @property
    def num_nodes(self) -> int:
        """Total node count after fitting."""
        return len(self._nodes)

    def fit(self, binned: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        """Fit to binned features (uint8) and continuous targets."""
        X = np.asarray(binned)
        y = np.asarray(targets, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise PredictionError("binned features and targets must align")
        if len(y) == 0:
            raise PredictionError("cannot fit a tree on zero samples")
        # Offset every feature's codes into its own bin range so one
        # bincount per node yields all features' histograms.
        width = int(X.max()) + 1 if X.size else 1
        codes = X.astype(np.int64) + np.arange(X.shape[1]) * width
        self._nodes = []
        self._grow(X, codes, width, y, np.arange(len(y)), depth=0)
        self._flat = self._flatten()
        return self

    def _grow(
        self,
        X: np.ndarray,
        codes: np.ndarray,
        width: int,
        y: np.ndarray,
        rows: np.ndarray,
        depth: int,
    ) -> int:
        node_id = len(self._nodes)
        value = float(y[rows].mean())
        self._nodes.append(_Node(-1, -1, -1, -1, value, True))
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return node_id
        split = self._best_split(codes, width, y, rows)
        if split is None:
            return node_id
        feature, threshold_bin = split
        go_left = X[rows, feature] <= threshold_bin
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        left_id = self._grow(X, codes, width, y, left_rows, depth + 1)
        right_id = self._grow(X, codes, width, y, right_rows, depth + 1)
        self._nodes[node_id] = _Node(
            feature, threshold_bin, left_id, right_id, value, False
        )
        return node_id

    def _best_split(
        self, codes: np.ndarray, width: int, y: np.ndarray, rows: np.ndarray
    ) -> tuple[int, int] | None:
        """Best (feature, threshold bin) over every bin boundary, or None.

        Each (feature, bin) sum adds its rows in row order, and bins past
        a feature's last code have no rows on the right, so they are
        invalid; the row-major first maximum is the first feature's first
        boundary attaining the best gain.
        """
        y_rows = y[rows]
        n = len(rows)
        num_features = codes.shape[1]
        total_sum = y_rows.sum()
        node_codes = codes[rows].ravel()
        size = num_features * width
        counts = np.bincount(node_codes, minlength=size)
        sums = np.bincount(
            node_codes, weights=np.repeat(y_rows, num_features), minlength=size
        )
        grid = (num_features, width)
        left_counts = np.cumsum(counts.reshape(grid), axis=1)[:, :-1]
        left_sums = np.cumsum(sums.reshape(grid), axis=1)[:, :-1]
        right_counts = n - left_counts
        right_sums = total_sum - left_sums
        valid = (left_counts >= self.min_samples_leaf) & (
            right_counts >= self.min_samples_leaf
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(
                valid,
                left_sums**2 / left_counts
                + right_sums**2 / right_counts
                - total_sum**2 / n,
                -np.inf,
            )
        if gain.size == 0:
            return None
        feature, idx = np.unravel_index(int(np.argmax(gain)), gain.shape)
        if not gain[feature, idx] > 1e-12:
            return None
        return int(feature), int(idx)

    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Predict for binned features."""
        if not self._nodes:
            raise PredictionError("tree is not fitted")
        feature, threshold, left, right, value = self._flat
        X = np.asarray(binned)
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.int64)
        # Leaves point to themselves, so max_depth steps settle every row.
        for _ in range(self.max_depth):
            go_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        return value[node]

    def _flatten(self) -> tuple[np.ndarray, ...]:
        nodes = self._nodes
        return (
            np.array([max(n.feature, 0) for n in nodes]),
            np.array([n.threshold_bin for n in nodes]),
            np.array([i if n.is_leaf else n.left for i, n in enumerate(nodes)]),
            np.array([i if n.is_leaf else n.right for i, n in enumerate(nodes)]),
            np.array([n.value for n in nodes]),
        )


def _as_matrix(features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise PredictionError(f"features must be 2-D, got shape {X.shape}")
    return X
