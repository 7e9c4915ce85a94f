"""Differential tests: the level-wise regression tree against the scan.

``ReferenceTree`` is the recursive per-node, per-feature split scan and
the per-node routing that :class:`RegressionTree`'s level-wise fit and
adjacent-child routing replaced, kept verbatim. On seeded binned
matrices both must grow the identical node list and return
bit-identical predictions, and a boosted ensemble must predict exactly
what a per-tree loop of the reference routing does.
"""

import numpy as np
import pytest

from repro.prediction.boosted import GradientBoostedRegressor
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
    assert len(_assert_same(X, y, max_depth=4, min_samples_leaf=51)._nodes) == 1
    # Half of the rows: the search runs and splits near the median.
    assert len(_assert_same(X, y, max_depth=4, min_samples_leaf=50)._nodes) == 3
    # Half of the rows, but every boundary leaves one side short.
    lopsided = np.repeat(np.array([[0, 2], [1, 3]], dtype=np.uint8), [30, 70], axis=0)
    y = np.repeat([0.0, 1.0], [30, 70])
    assert len(_assert_same(lopsided, y, max_depth=4, min_samples_leaf=50)._nodes) == 1


def test_all_constant_columns_make_a_stump():
    X = np.full((40, 3), 5, dtype=np.uint8)
    y = np.random.default_rng(1).normal(size=40)
    tree = _assert_same(X, y, max_depth=3, min_samples_leaf=1)
    assert len(tree._nodes) == 1


def test_single_row_leaves():
    rng = np.random.default_rng(5)
    X = _binned(rng, 12, max_bins=256)
    y = _targets(rng, X)
    tree = _assert_same(X, y, max_depth=8, min_samples_leaf=1)
    assert _leaf_sizes(tree, X)[0] == 1
    one_row = _assert_same(X[:1], y[:1], max_depth=3, min_samples_leaf=1)
    assert len(one_row._nodes) == 1


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
    assert len(tree._nodes) == nodes


def test_matches_reference_on_rows_in_subsample_order():
    """Boosting fits each tree on a subsample in random order; every sum
    must follow that row order, not sorted row ids."""
    rng = np.random.default_rng(21)
    X = _binned(rng, 2_000, max_bins=64)
    y = _targets(rng, X)
    rows = rng.choice(len(X), size=1_600, replace=False)
    assert not np.all(np.diff(rows) > 0)
    _assert_same(X[rows], y[rows], max_depth=5, min_samples_leaf=8, X_eval=X)


def test_depth_24_tree_keeps_one_routing_entry_per_node():
    """Doubling targets make the splits peel the largest rows off, so the
    tree reaches depth 24 with 95 nodes, where a complete layout would
    allocate 2**25 entries."""
    X = np.arange(60, dtype=np.uint8)[:, None]
    y = 2.0 ** np.arange(60)
    tree = _assert_same(X, y, max_depth=24, min_samples_leaf=1)
    assert tree._depth == 24
    assert [len(array) for array in tree._flat] == [len(tree._nodes)] * 4 == [95] * 4


def test_boosted_fit_and_predict_match_a_reference_loop():
    """The boosting loop rebuilt on ``ReferenceTree`` grows the same trees,
    and the ensemble predicts the per-tree reference routing's sum."""
    rng = np.random.default_rng(4)
    raw = rng.lognormal(size=(1_500, 5))
    y = np.log1p(raw[:, 0]) + rng.normal(0.0, 0.2, len(raw))
    model = GradientBoostedRegressor(
        num_trees=40, max_depth=5, min_samples_leaf=4, subsample=0.8
    ).fit(raw, y, rng=np.random.default_rng(5))

    sample_rng = np.random.default_rng(5)
    binned = model._binner.transform(raw)
    prediction = np.full(len(y), y.mean())
    sample_size = int(0.8 * len(y))
    for tree in model._trees:
        rows = sample_rng.choice(len(y), size=sample_size, replace=False)
        ref = ReferenceTree(5, 4).fit(binned[rows], (y - prediction)[rows])
        assert tree._nodes == ref._nodes
        prediction += model.learning_rate * ref.predict(binned)

    X_eval = rng.lognormal(size=(700, 5))
    binned_eval = model._binner.transform(X_eval)
    expected = np.full(len(X_eval), model._base)
    for tree in model._trees:
        ref = ReferenceTree(tree.max_depth, tree.min_samples_leaf)
        ref._nodes = tree._nodes
        expected += model.learning_rate * ref.predict(binned_eval)
    assert np.array_equal(model.predict(X_eval), expected)
