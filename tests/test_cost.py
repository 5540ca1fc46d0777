import numpy as np
import pytest

from peot.cost import (
    DEFAULT_PRUNE_THRESHOLD,
    deployed_power,
    power_penalty,
    power_penalty_gradients,
)
from peot.errors import InvalidInputError
from peot.tree import ObliqueTree, loss_value


def deployed_power_oracle(tree, X, c, threshold=DEFAULT_PRUNE_THRESHOLD):
    """Scalar walk per sample: the set of features read on the path, priced once."""
    total = 0.0
    for x in X:
        node, read = 0, set()
        for _ in range(tree.depth):
            for f in range(tree.n_features):
                if sum(abs(tree.W1[node, h, f]) for h in range(tree.hidden)) > threshold:
                    read.add(f)
            node = 2 * node + 1 + (tree.routing_probability(node, x) > 0.5)
        total += sum(c[f] for f in read)
    return total / len(X)


def pruned_tree(seed):
    """Depth-2 tree with dead columns; feature 1 is read at every node."""
    rng = np.random.default_rng(seed)
    tree = ObliqueTree.random(2, 5, 2, hidden=3, rng=rng)
    tree.W1[:, :, 4] = 0.0  # never read
    tree.W1[0, :, 2:4] = 0.0  # the root reads 0 and 1 only
    tree.W1[1, :, 0] = 0.0
    tree.W1[2, :, 3] = 0.0
    tree.W1[:, :, 1] = np.abs(tree.W1[:, :, 1]) + 0.1
    tree.b2 = rng.normal(0, 0.3, size=3)
    return tree


class TestDeployedPower:
    def test_shared_feature_charged_once(self):
        # zero w2 gives logit b2: the root's sign picks the branch
        W1 = np.zeros((3, 1, 4))
        W1[0, 0, [0, 1]] = 1.0
        W1[1, 0, [1, 2]] = 1.0
        W1[2, 0, [1, 3]] = 1.0
        tree = ObliqueTree(2, 4, 2, 1, W1, np.zeros((3, 1)), np.zeros((3, 1)),
                           np.zeros(3), np.zeros((4, 2)))
        c = np.array([1.0, 2.0, 4.0, 8.0])
        x = np.ones((1, 4))
        assert deployed_power(tree, x, c) == 7.0  # path 0 -> 1: features 0, 1, 2
        tree.b2[0] = 1.0
        assert deployed_power(tree, x, c) == 11.0  # path 0 -> 2: features 0, 1, 3

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_walk_oracle(self, seed):
        tree = pruned_tree(seed)
        rng = np.random.default_rng(50 + seed)
        X = rng.normal(size=(40, tree.n_features))
        c = rng.uniform(0.5, 5.0, size=tree.n_features)
        assert deployed_power(tree, X, c) == pytest.approx(
            deployed_power_oracle(tree, X, c), rel=1e-12)

    def test_single_sample_equals_batch_of_one(self):
        tree = pruned_tree(9)
        x = np.random.default_rng(3).normal(size=tree.n_features)
        c = np.arange(1.0, 6.0)
        assert deployed_power(tree, x, c) == deployed_power(tree, x[None], c)

    def test_empty_batch_and_bad_cost_vector_rejected(self):
        tree = pruned_tree(0)
        with pytest.raises(InvalidInputError):
            deployed_power(tree, np.zeros((0, tree.n_features)), np.ones(5))
        with pytest.raises(InvalidInputError):
            deployed_power(tree, np.zeros((2, tree.n_features)), np.ones(4))


class TestPowerPenalty:
    def test_is_the_penalty_term_of_the_objective(self):
        tree = pruned_tree(1)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, tree.n_features))
        y = rng.integers(0, 2, size=12)
        c = rng.uniform(0.5, 5.0, size=tree.n_features)
        ce = loss_value(tree, X, y)
        assert loss_value(tree, X, y, lam=1.0, cost_vec=c) == ce + power_penalty(tree, X, c)

    def test_zero_weights_cost_nothing(self):
        tree = pruned_tree(2)
        tree.W1[:] = 0.0
        X = np.ones((3, tree.n_features))
        assert power_penalty(tree, X, np.ones(5)) == 0.0
        grads = power_penalty_gradients(tree, X, np.ones(5))
        assert not grads["leaf_logits"].any()

    def test_empty_batch_rejected(self):
        tree = pruned_tree(0)
        with pytest.raises(InvalidInputError):
            power_penalty(tree, np.zeros((0, tree.n_features)), np.ones(5))
