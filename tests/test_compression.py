import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peot.compression import (
    Codebook,
    CompressionState,
    fine_tune,
    prune,
    share,
    size_breakdown,
)
from peot.errors import InvalidInputError
from peot.tree import ObliqueTree, TrainConfig, train


def random_tree(depth=2, F=5, C=2, hidden=3, seed=0):
    return ObliqueTree.random(depth, F, C, hidden=hidden, rng=np.random.default_rng(seed))


def blob_data(n=120, F=5, seed=0):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.normal(size=(n, F)) + 1.5 * y[:, None] * (np.arange(F) < 2)
    return X, y


@settings(max_examples=80, deadline=None)
@given(sparsity=st.floats(0.0, 1.0, exclude_max=True),
       levels=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_prune_zeroes_floor_s_n_weights_smallest_first_ties_in_order(sparsity, levels, seed):
    tree = random_tree(seed=seed)
    rng = np.random.default_rng(seed)
    # few magnitude levels, so most of the ranking is ties
    tree.W1 = rng.integers(1, levels + 1, size=tree.W1.shape) * rng.choice([-1.0, 1.0], tree.W1.shape)
    before = tree.W1.copy()
    pruned, mask = prune(tree, sparsity)
    n = before.size
    assert mask.sum() == math.floor(sparsity * n)
    assert np.all(pruned.W1[mask] == 0.0)
    assert np.array_equal(pruned.W1[~mask], before[~mask])
    assert np.array_equal(tree.W1, before)
    flat_mag, flat_mask = np.abs(before).reshape(-1), mask.reshape(-1)
    if 0 < flat_mask.sum() < n:
        # every pruned magnitude <= every kept one; at the cut-off magnitude
        # the pruned entries come first in (node, row, column) order
        cut = flat_mag[flat_mask].max()
        assert cut <= flat_mag[~flat_mask].min()
        tied = np.flatnonzero(flat_mag == cut)
        assert np.all(np.diff(flat_mask[tied].astype(int)) <= 0)
    assert np.array_equal(pruned.compression.pruned, mask)


def test_prune_rejects_sparsity_outside_unit_interval():
    for s in (-0.1, 1.0):
        with pytest.raises(InvalidInputError):
            prune(random_tree(), s)


@pytest.mark.parametrize("bits", [1, 2, 3, 5])
@pytest.mark.parametrize("n_values", [1, 3, 40])
def test_share_k_is_two_to_the_bits_capped_by_distinct_values(bits, n_values):
    tree = random_tree(seed=bits)
    rng = np.random.default_rng(n_values)
    tree.W1 = rng.choice(rng.normal(size=n_values), size=tree.W1.shape)
    pruned, mask = prune(tree, 0.3)
    n_distinct = np.unique(pruned.W1[~mask]).size
    shared, codebook = share(pruned, mask, bits)
    k = codebook.centroids.size
    assert k == min(2 ** bits, n_distinct)
    assert codebook.assignments.shape == (int((~mask).sum()),)
    assert np.array_equal(shared.W1[~mask], codebook.centroids[codebook.assignments])
    assert np.unique(shared.W1[~mask]).size <= k
    assert np.all(shared.W1[mask] == 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("bits", [None, 2])
def test_fine_tune_keeps_pruned_zero_and_clusters_equal(lam, bits):
    X, y = blob_data()
    cost_vec = np.linspace(1.0, 3.0, X.shape[1])
    tree = random_tree()
    pruned, mask = prune(tree, 0.5)
    codebook = None
    if bits is not None:
        pruned, codebook = share(pruned, mask, bits)
        centroids = codebook.centroids.copy()
    config = TrainConfig(depth=2, hidden=3, epochs=3, lam=lam, seed=1)
    out = fine_tune(pruned, X, y, mask, codebook, config,
                    cost_vec=cost_vec if lam > 0 else None)
    assert np.all(out.W1[mask] == 0.0)
    assert not np.array_equal(out.W1[~mask], pruned.W1[~mask])
    if codebook is not None:
        assign = out.compression.codebook.assignments
        surviving = out.W1[~mask]
        for j in range(codebook.centroids.size):
            assert np.unique(surviving[assign == j]).size <= 1
        assert np.array_equal(surviving, out.compression.codebook.centroids[assign])
        assert np.array_equal(codebook.centroids, centroids)  # the caller's is not moved


def hand_tree(n_classes=3):
    # depth 2, hidden 2, 4 features: W1 is (3, 2, 4), 24 weights;
    # b1 6, w2 6, b2 3, leaf logits 4 x n_classes
    n, h, F = 3, 2, 4
    return ObliqueTree(2, F, n_classes, h, W1=np.ones((n, h, F)), b1=np.zeros((n, h)),
                       w2=np.zeros((n, h)), b2=np.zeros(n),
                       leaf_logits=np.zeros((4, n_classes)))


def test_pruned_shared_bits_closed_form():
    tree = hand_tree()
    other = 32 * (6 + 6 + 3 + 4 * 3)  # 864

    # uncompressed: every weight survives at full precision, 5-bit indices
    assert size_breakdown(tree, "pruned-shared") == {
        "accounting": "pruned-shared", "total_bits": 24 * 32 + 24 * 5 + other,
        "surviving_weight_bits": 768, "codebook_bits": 0,
        "sparse_index_bits": 120, "other_params_bits": other,
    }

    mask = np.zeros(tree.W1.shape, dtype=bool)
    mask.reshape(-1)[:10] = True  # 14 survivors
    tree.compression = CompressionState(pruned=mask)
    assert size_breakdown(tree, "pruned-shared") == {
        "accounting": "pruned-shared", "total_bits": 14 * 32 + 14 * 5 + other,
        "surviving_weight_bits": 448, "codebook_bits": 0,
        "sparse_index_bits": 70, "other_params_bits": other,
    }

    # 3 centroids: 2-bit weight indices plus three 32-bit centroids
    tree.compression = CompressionState(
        pruned=mask, codebook=Codebook(np.array([-1.0, 0.5, 2.0]), np.arange(14) % 3))
    assert size_breakdown(tree, "pruned-shared") == {
        "accounting": "pruned-shared", "total_bits": 28 + 96 + 70 + other,
        "surviving_weight_bits": 28, "codebook_bits": 96,
        "sparse_index_bits": 70, "other_params_bits": other,
    }

    # a one-centroid codebook needs no weight index bits
    tree.compression = CompressionState(
        pruned=mask, codebook=Codebook(np.array([0.5]), np.zeros(14, dtype=np.int64)))
    assert size_breakdown(tree, "pruned-shared")["surviving_weight_bits"] == 0
    assert size_breakdown(tree, "pruned-shared")["codebook_bits"] == 32


def test_dense_float32_bits_closed_form():
    assert size_breakdown(hand_tree(n_classes=2), "dense-float32") == {
        "accounting": "dense-float32", "total_bits": 32 * (24 + 6 + 6 + 3 + 8),
        "w1_bits": 32 * 24, "other_params_bits": 32 * (6 + 6 + 3 + 8),
    }


@pytest.mark.parametrize("optimizer", ["momentum", "adaptive"])
@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("bits", [None, 2])
def test_train_from_a_compressed_tree_keeps_its_constraint(optimizer, lam, bits):
    X, y = blob_data()
    cost_vec = np.linspace(1.0, 3.0, X.shape[1])
    start, mask = prune(random_tree(), 0.5)
    if bits is not None:
        start, _ = share(start, mask, bits)
    before = start.compression.copy()
    config = TrainConfig(depth=2, hidden=3, epochs=3, lam=lam, seed=1,
                         optimizer=optimizer, learning_rate=0.05)
    out = train(X, y, config, cost_vec if lam > 0 else None, init_tree=start)

    assert np.all(out.W1[mask] == 0.0)
    assert np.array_equal(out.compression.pruned, mask)
    assert not np.array_equal(out.W1[~mask], start.W1[~mask])
    codebook = out.compression.codebook
    if bits is not None:
        assert np.array_equal(out.W1[~mask], codebook.centroids[codebook.assignments])
        assert np.array_equal(codebook.assignments, before.codebook.assignments)
        assert not np.array_equal(codebook.centroids, before.codebook.centroids)
        # the start tree's state is not moved
        assert np.array_equal(start.compression.codebook.centroids, before.codebook.centroids)
    else:
        assert codebook is None
    # training from the state on the tree is what fine_tune does
    tuned = fine_tune(start, X, y, mask, start.compression.codebook, config,
                      cost_vec=cost_vec if lam > 0 else None)
    assert tuned.to_doc() == out.to_doc()
