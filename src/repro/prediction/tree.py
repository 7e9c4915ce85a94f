"""Histogram-based CART regression tree (numpy only).

Features are pre-binned into at most 256 quantile bins; each split
search accumulates per-bin sums with ``np.bincount`` and scans the
variance-gain of every bin boundary — the same strategy LightGBM-class
learners use, compact enough to implement and verify from scratch.

Both hot paths are vectorised across features and nodes. The fit grows
a level at a time: one count and one weighted ``bincount`` build every
open node's histogram of every feature at once. Prediction routes all
rows through breadth-first node arrays in which a node's two children
are adjacent, a few ``take`` calls per level.
"""

from __future__ import annotations

import numpy as np

from ..errors import PredictionError

__all__ = ["FeatureBinner", "RegressionTree", "feature_codes"]

#: A leaf's routing threshold: no uint8 bin code exceeds it.
_NEVER_RIGHT = 255


class FeatureBinner:
    """Maps raw feature columns to small integer bins by quantile."""

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 256:
            raise PredictionError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        self._edges: list[np.ndarray] = []

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


def feature_codes(binned: np.ndarray) -> tuple[np.ndarray, int]:
    """Feature-major codes of a binned matrix, and their bin ``width``.

    Feature ``j``'s codes are offset by ``j * width`` into a range of its
    own, so one ``bincount`` histograms every feature at once. Any
    subset of the columns (rows of ``binned``) fits with the same
    ``width``: a width above a subset's largest code only adds bins with
    no rows on their right, which can never be a split. The codes take
    the narrowest unsigned dtype that holds them (uint16 for the
    predictor's features); intp codes lift a two-build process's peak
    RSS by ~11 MB (glibc heap layout, DESIGN §10).
    """
    X = np.asarray(binned)
    width = int(X.max()) + 1 if X.size else 1
    dtype = np.min_scalar_type(max(X.shape[1] * width - 1, 0))
    codes = np.ascontiguousarray(X.T, dtype=dtype)
    codes += (np.arange(len(codes)) * width).astype(dtype)[:, None]
    return codes, width


class RegressionTree:
    """A depth-bounded least-squares regression tree on binned features."""

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 8) -> None:
        if max_depth < 1:
            raise PredictionError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise PredictionError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        #: The nodes breadth-first as (feature, threshold, child, value)
        #: arrays for routing: a split node's children are ``child`` and
        #: ``child + 1``; a leaf is its own child.
        self._flat: tuple[np.ndarray, ...] = ()
        #: Routing steps that settle every row (the deepest leaf's depth).
        self._depth = 0

    def fit(self, binned: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        """Fit to binned features (uint8) and continuous targets."""
        X = np.asarray(binned)
        if X.ndim != 2:
            raise PredictionError("binned features and targets must align")
        return self.fit_codes(*feature_codes(X), targets)

    def fit_codes(
        self, codes: np.ndarray, width: int, targets: np.ndarray
    ) -> "RegressionTree":
        """Fit to :func:`feature_codes` output (or a subset of its columns).

        Grows the tree level by level. Each row carries its node's slot
        among the level's nodes, so one count and one weighted
        ``bincount`` per level build every splittable node's histogram
        of every feature at once (see :meth:`_best_splits`).
        """
        y = np.asarray(targets, dtype=np.float64)
        if codes.ndim != 2 or codes.shape[1] != len(y):
            raise PredictionError("binned features and targets must align")
        if len(y) == 0:
            raise PredictionError("cannot fit a tree on zero samples")
        n = len(y)
        flat_codes = codes.reshape(-1)
        keys = np.empty(codes.shape, dtype=np.intp)
        weights = np.tile(y, len(codes))
        row_ids = np.arange(n)
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        values: list[np.ndarray] = []
        # Each row's node among the level's nodes; rows of leaves of
        # earlier levels share the spare slot ``level_size``.
        slot = np.zeros(n, dtype=np.intp)
        level_size, first = 1, 0
        while True:
            # Each node's rows in ascending order, as the recursive
            # partition kept them, so its pairwise sum is the same. A
            # stable sort of narrow slots is a radix sort.
            order = np.argsort(
                slot.astype(np.min_scalar_type(level_size)), kind="stable"
            )
            sizes = np.bincount(slot, minlength=level_size + 1)[:level_size]
            ends = np.cumsum(sizes)
            y_sorted = y.take(order[: ends[-1]])
            sums = np.array(
                [
                    y_sorted[start:stop].sum()
                    for start, stop in zip((ends - sizes).tolist(), ends.tolist())
                ]
            )
            # ``sum / n`` is ``mean`` bit for bit.
            values.append(sums / sizes)
            feature = np.zeros(level_size + 1, dtype=np.intp)
            threshold = np.full(level_size + 1, _NEVER_RIGHT, dtype=np.intp)
            split = np.empty(0, dtype=np.intp)
            if len(levels) < self.max_depth and width > 1:
                candidates = np.flatnonzero(sizes >= 2 * self.min_samples_leaf)
                if len(candidates):
                    best, gain = self._best_splits(
                        codes, keys, weights, slot, candidates, sizes, sums, width
                    )
                    accepted = gain > 1e-12
                    split = candidates[accepted]
                    feature[split] = best[accepted] // (width - 1)
                    threshold[split] = best[accepted] % (width - 1)
            child = np.arange(first, first + level_size)
            child[split] = first + level_size + 2 * np.arange(len(split))
            levels.append((feature[:level_size], threshold[:level_size], child))
            if not len(split):
                break
            # Left child's slot on the next level; leaves and the spare
            # slot map to the next spare slot and never go right (feature
            # 0's codes are below ``width <= 256``).
            next_left = np.full(level_size + 1, 2 * len(split), dtype=np.intp)
            next_left[split] = 2 * np.arange(len(split))
            cut = feature * width + threshold
            row_codes = flat_codes.take(feature.take(slot) * n + row_ids)
            slot = next_left.take(slot) + (row_codes > cut.take(slot))
            first += level_size
            level_size = 2 * len(split)
        self._depth = len(levels) - 1
        self._flat = (
            *(np.concatenate(arrays) for arrays in zip(*levels)),
            np.concatenate(values),
        )
        return self

    def _best_splits(
        self,
        codes: np.ndarray,
        keys: np.ndarray,
        weights: np.ndarray,
        slot: np.ndarray,
        candidates: np.ndarray,
        sizes: np.ndarray,
        sums: np.ndarray,
        width: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each candidate node's best flat (feature, bin) index and gain.

        Keys are ``codes + slot * stride``, with every other row in one
        spare slot past the candidates. Each (node, feature, bin) sum
        adds its rows in row order, as a per-node ``bincount`` did, and
        bins past a feature's last code have no rows on the right, so
        they are invalid; the row-wise first maximum is the first
        feature's first boundary attaining the node's best gain.
        """
        k = len(candidates)
        num_features = len(codes)
        stride = num_features * width
        remap = np.full(len(sizes) + 1, k, dtype=np.intp)
        remap[candidates] = np.arange(k)
        np.add(codes, remap.take(slot) * stride, out=keys)
        flat = keys.reshape(-1)
        size = (k + 1) * stride
        grid = (k + 1, num_features, width)
        counts = np.bincount(flat, minlength=size).reshape(grid)
        hist = np.bincount(flat, weights=weights, minlength=size).reshape(grid)
        left_counts = np.cumsum(counts[:k], axis=2)[:, :, :-1]
        left_sums = np.cumsum(hist[:k], axis=2)[:, :, :-1]
        n = sizes.take(candidates)[:, None, None]
        total_sum = sums.take(candidates)[:, None, None]
        # The parent term as the per-node scalar expression computed it:
        # ``np.float64 ** 2`` is libm ``pow``, which differs from the
        # array ``** 2`` (an exact square, rounded once) in about one
        # value in 1 200.
        parent = np.array([sums[j] ** 2 / int(sizes[j]) for j in candidates])
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
                - parent[:, None, None],
                -np.inf,
            ).reshape(k, -1)
        best = np.argmax(gain, axis=1)
        return best, gain[np.arange(k), best]

    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Predict for binned features.

        Routes every row through the breadth-first node arrays:
        ``node = child[node] + (x > threshold[node])``, since a split
        node's right child follows its left, and a leaf points to itself
        with a threshold no bin code exceeds.
        """
        if not self._flat:
            raise PredictionError("tree is not fitted")
        feature, threshold, child, value = self._flat
        X = np.asarray(binned)
        flat = X.reshape(-1)
        base = np.arange(len(X)) * X.shape[1]
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(self._depth):
            x = flat.take(base + feature.take(node))
            node = child.take(node) + (x > threshold.take(node))
        return value.take(node)


def _as_matrix(features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise PredictionError(f"features must be 2-D, got shape {X.shape}")
    return X
