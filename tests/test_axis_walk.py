"""``AxisTree.walk`` against a per-row scalar walk: the same leaf and the
same used features for every row, on any tree shape and memory layout."""

import numpy as np
import pytest

from peot.boosting import AxisTree, GbtConfig, train_gbt

N_FEATURES = 6


def scalar_walk(tree, X):
    """One row at a time, one node at a time: right iff x[f] > threshold."""
    X = np.asarray(X, dtype=np.float64)
    leaves = np.empty(X.shape[0], dtype=np.int64)
    used = np.zeros(X.shape, dtype=bool)
    for r in range(X.shape[0]):
        u = 0
        while tree.feature[u] >= 0:
            f = tree.feature[u]
            used[r, f] = True
            u = tree.right[u] if X[r, f] > tree.threshold[u] else tree.left[u]
        leaves[r] = u
    return leaves, used


def assert_walks_agree(tree, X):
    used = np.zeros(np.shape(X), dtype=bool)
    leaves = tree.walk(X, used=used)
    ref_leaves, ref_used = scalar_walk(tree, X)
    assert np.array_equal(leaves, ref_leaves) and np.array_equal(used, ref_used)
    assert np.array_equal(tree.walk(X), ref_leaves)


def full_tree(depth, rng):
    """A complete tree whose thresholds sit on the integer grid of ``grid_rows``."""
    n = 2 ** (depth + 1) - 1
    node = np.arange(n)
    internal = node < 2 ** depth - 1
    return AxisTree(
        feature=np.where(internal, rng.integers(0, N_FEATURES, n), -1),
        threshold=np.where(internal, rng.integers(-2, 3, n).astype(float), np.nan),
        left=np.where(internal, 2 * node + 1, -1),
        right=np.where(internal, 2 * node + 2, -1),
        value=np.where(internal, 0.0, rng.normal(size=n)),
        node_depth=np.floor(np.log2(node + 1)).astype(np.int64),
    )


def grid_rows(rng, n):
    """Rows on the thresholds' grid, so many values equal a threshold."""
    return rng.integers(-3, 4, size=(n, N_FEATURES)).astype(float)


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("n_rows", [0, 1, 2, 50])
def test_random_full_trees(depth, n_rows):
    rng = np.random.default_rng([depth, n_rows])
    tree = full_tree(depth, rng)
    X = grid_rows(rng, n_rows)
    assert_walks_agree(tree, X)
    if n_rows == 50:
        # ties are present, so ">" versus ">=" is decided here
        at_root = X[:, tree.feature[0]] == tree.threshold[0]
        assert at_root.any()


@pytest.fixture(scope="module")
def trained_trees():
    """The trees of a boosted model, grown on grid data until pure or at
    max_depth, so their leaves sit at different depths."""
    rng = np.random.default_rng(5)
    X = grid_rows(rng, 200)
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 1).astype(np.int64)
    model = train_gbt(X, y, GbtConfig(n_trees=8, max_depth=4))
    trees = model.trees
    leaf_depths = [set(t.node_depth[t.feature < 0].tolist()) for t in trees]
    assert any(len(d) > 1 for d in leaf_depths)
    return X, trees


@pytest.mark.parametrize("n_rows", [0, 1, 7, 200])
def test_trained_unbalanced_trees(trained_trees, n_rows):
    X, trees = trained_trees
    for tree in trees:
        assert_walks_agree(tree, X[:n_rows])


def test_fortran_ordered_and_strided_rows(trained_trees):
    X, trees = trained_trees
    wide = np.repeat(X, 2, axis=1)
    for view in (np.asfortranarray(X), X[::-3], wide[5:90:2, ::2], X[::-1]):
        assert not view.flags.c_contiguous
        for tree in trees:
            assert_walks_agree(tree, view)


def test_a_stump_whose_root_is_a_leaf():
    stump = AxisTree(feature=np.array([-1]), threshold=np.array([np.nan]),
                     left=np.array([-1]), right=np.array([-1]),
                     value=np.array([0.25]), node_depth=np.array([0]))
    X = grid_rows(np.random.default_rng(0), 9)
    used = np.zeros(X.shape, dtype=bool)
    assert np.array_equal(stump.walk(X, used=used), np.zeros(9, dtype=np.int64))
    assert not used.any()
    assert_walks_agree(stump, X[:0])
    assert np.array_equal(stump.leaf_values(X), np.full(9, 0.25))
