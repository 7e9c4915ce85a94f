"""Differential tests: the vectorised regression tree against the scan.

``ReferenceTree`` is the per-feature split scan and level-by-level
routing the vectorised :class:`RegressionTree` replaced, kept verbatim.
On seeded binned matrices both must grow the identical node list and
return bit-identical predictions.
"""

import numpy as np
import pytest

from repro.prediction.tree import FeatureBinner, RegressionTree, _Node


class ReferenceTree:
    """The per-feature histogram scan and per-level routing, verbatim."""

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 8) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._nodes: list[_Node] = []

    def fit(self, binned: np.ndarray, targets: np.ndarray) -> "ReferenceTree":
        X = np.asarray(binned)
        y = np.asarray(targets, dtype=np.float64)
        self._nodes = []
        self._grow(X, y, np.arange(len(y)), depth=0)
        return self

    def _grow(
        self, X: np.ndarray, y: np.ndarray, rows: np.ndarray, depth: int
    ) -> int:
        node_id = len(self._nodes)
        value = float(y[rows].mean())
        self._nodes.append(_Node(-1, -1, -1, -1, value, True))
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return node_id
        split = self._best_split(X, y, rows)
        if split is None:
            return node_id
        feature, threshold_bin = split
        go_left = X[rows, feature] <= threshold_bin
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        left_id = self._grow(X, y, left_rows, depth + 1)
        right_id = self._grow(X, y, right_rows, depth + 1)
        self._nodes[node_id] = _Node(
            feature, threshold_bin, left_id, right_id, value, False
        )
        return node_id

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rows: np.ndarray
    ) -> tuple[int, int] | None:
        y_rows = y[rows]
        n = len(rows)
        total_sum = y_rows.sum()
        best_gain = 1e-12
        best: tuple[int, int] | None = None
        for feature in range(X.shape[1]):
            codes = X[rows, feature].astype(np.int64)
            counts = np.bincount(codes)
            if len(counts) < 2:
                continue
            sums = np.bincount(codes, weights=y_rows)
            left_counts = np.cumsum(counts)[:-1]
            left_sums = np.cumsum(sums)[:-1]
            right_counts = n - left_counts
            right_sums = total_sum - left_sums
            valid = (left_counts >= self.min_samples_leaf) & (
                right_counts >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.where(
                    valid,
                    left_sums**2 / left_counts
                    + right_sums**2 / right_counts
                    - total_sum**2 / n,
                    -np.inf,
                )
            idx = int(np.argmax(gain))
            if gain[idx] > best_gain:
                best_gain = float(gain[idx])
                best = (feature, idx)
        return best

    def predict(self, binned: np.ndarray) -> np.ndarray:
        X = np.asarray(binned)
        out = np.empty(len(X), dtype=np.float64)
        node_ids = np.zeros(len(X), dtype=np.int64)
        active = np.arange(len(X))
        while len(active):
            still_internal = []
            for nid in np.unique(node_ids[active]):
                node = self._nodes[nid]
                members = active[node_ids[active] == nid]
                if node.is_leaf:
                    out[members] = node.value
                    continue
                left = X[members, node.feature] <= node.threshold_bin
                node_ids[members[left]] = node.left
                node_ids[members[~left]] = node.right
                still_internal.append(members)
            active = (
                np.concatenate(still_internal) if still_internal else np.empty(0, int)
            )
        return out


def _binned(rng: np.random.Generator, n: int, max_bins: int) -> np.ndarray:
    """Binned skewed features plus a zero and a non-zero constant column,
    and a duplicate of column 0 so gains tie across features."""
    raw = rng.lognormal(0.0, 1.0, size=(n, 4))
    X = FeatureBinner(max_bins).fit(raw).transform(raw)
    constant_zero = np.zeros((n, 1), dtype=np.uint8)
    constant_seven = np.full((n, 1), 7, dtype=np.uint8)
    return np.hstack([constant_zero, X, X[:, :1], constant_seven])


def _targets(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    return np.log1p(X[:, 1].astype(float)) + rng.normal(0.0, 0.3, len(X))


def _leaf_sizes(tree: RegressionTree, X: np.ndarray) -> list[int]:
    """Training rows per leaf, by walking each row down ``_nodes``."""
    sizes: dict[int, int] = {}
    for row in X:
        nid = 0
        while not tree._nodes[nid].is_leaf:
            node = tree._nodes[nid]
            nid = node.left if row[node.feature] <= node.threshold_bin else node.right
        sizes[nid] = sizes.get(nid, 0) + 1
    return sorted(sizes.values())


def _assert_same(X, y, max_depth, min_samples_leaf, X_eval=None):
    tree = RegressionTree(max_depth, min_samples_leaf).fit(X, y)
    ref = ReferenceTree(max_depth, min_samples_leaf).fit(X, y)
    assert tree._nodes == ref._nodes
    X_eval = X if X_eval is None else X_eval
    assert np.array_equal(tree.predict(X_eval), ref.predict(X_eval))
    return tree


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("min_samples_leaf", [1, 8])
@pytest.mark.parametrize("max_depth", [1, 3, 6])
def test_matches_reference_on_256_bins(seed, min_samples_leaf, max_depth):
    rng = np.random.default_rng(seed)
    X = _binned(rng, 1_500, max_bins=256)
    assert X[:, 1:5].max() == 255
    y = _targets(rng, X)
    X_eval = _binned(np.random.default_rng(seed + 100), 400, max_bins=256)
    _assert_same(X, y, max_depth, min_samples_leaf, X_eval)


@pytest.mark.parametrize("seed", range(4))
def test_matches_reference_on_few_bins_and_ties(seed):
    """Few bins leave empty bins inside a node and many tied gains."""
    rng = np.random.default_rng(seed)
    X = _binned(rng, 300, max_bins=4)
    y = rng.integers(0, 3, len(X)).astype(np.float64)
    _assert_same(X, y, max_depth=5, min_samples_leaf=2)


def test_tied_columns_split_on_the_first():
    rng = np.random.default_rng(7)
    X = _binned(rng, 500, max_bins=16)
    y = X[:, 1].astype(np.float64)
    tree = _assert_same(X, y, max_depth=1, min_samples_leaf=1)
    assert tree._nodes[0].feature == 1  # not its duplicate, column 5


def test_leaf_minimum_above_half_blocks_every_split():
    rng = np.random.default_rng(3)
    X = _binned(rng, 101, max_bins=64)
    y = _targets(rng, X)
    # More than half of the rows: the root cannot even be searched.
    assert _assert_same(X, y, max_depth=4, min_samples_leaf=51).num_nodes == 1
    # Half of the rows: the search runs and splits near the median.
    assert _assert_same(X, y, max_depth=4, min_samples_leaf=50).num_nodes == 3
    # Half of the rows, but every boundary leaves one side short.
    lopsided = np.repeat(np.array([[0, 2], [1, 3]], dtype=np.uint8), [30, 70], axis=0)
    y = np.repeat([0.0, 1.0], [30, 70])
    assert _assert_same(lopsided, y, max_depth=4, min_samples_leaf=50).num_nodes == 1


def test_all_constant_columns_make_a_stump():
    X = np.full((40, 3), 5, dtype=np.uint8)
    y = np.random.default_rng(1).normal(size=40)
    tree = _assert_same(X, y, max_depth=3, min_samples_leaf=1)
    assert tree.num_nodes == 1


def test_single_row_leaves():
    rng = np.random.default_rng(5)
    X = _binned(rng, 12, max_bins=256)
    y = _targets(rng, X)
    tree = _assert_same(X, y, max_depth=8, min_samples_leaf=1)
    assert _leaf_sizes(tree, X)[0] == 1
    one_row = _assert_same(X[:1], y[:1], max_depth=3, min_samples_leaf=1)
    assert one_row.num_nodes == 1


def test_refit_rebuilds_routing():
    rng = np.random.default_rng(9)
    X = _binned(rng, 200, max_bins=32)
    tree = RegressionTree(3, 4).fit(X, _targets(rng, X))
    tree.predict(X)
    y = -_targets(rng, X)
    tree.fit(X, y)
    assert np.array_equal(tree.predict(X), ReferenceTree(3, 4).fit(X, y).predict(X))


@pytest.mark.parametrize("step, nodes", [(1e-7, 1), (1e-5, 3)])
def test_gain_floor(step, nodes):
    """A split must gain more than 1e-12 (here gain = 10 * step**2 / 2)."""
    X = np.repeat(np.array([[0], [1]], dtype=np.uint8), 10, axis=0)
    y = np.repeat([0.0, step], 10)
    tree = _assert_same(X, y, max_depth=2, min_samples_leaf=1)
    assert tree.num_nodes == nodes
