"""Read masks of both model kinds and the one charge that prices them.

``ObliqueTree.reads`` and ``GbtOvR.reads`` are checked against the scalar
walks of ``test_cost.deployed_power_oracle`` and
``test_boosting.power_oracle``: under the unit price of feature f, a row's
oracle power is 1 iff the row reads f.  ``deployed_power`` and
``model_power`` are checked bit for bit against the formulas they had before
both became ``charge`` of a read mask, kept here as references.
"""

import numpy as np
import pytest

from peot import boosting, cost
from peot.boosting import GbtConfig, predict_labels, train_gbt_multiclass
from peot.errors import InvalidInputError
from peot.tree import DEFAULT_PRUNE_THRESHOLD, ObliqueTree, charge
from test_boosting import BINARY, N_FEATURES, THREE_CLASS, hand_model, power_oracle
from test_cost import deployed_power_oracle


def reference_deployed_power(tree, X, cost_vec):
    """``cost.deployed_power`` before the read mask."""
    c = np.asarray(cost_vec, dtype=np.float64)
    path, _ = tree.route(X)
    reads = np.add.reduce(np.abs(tree.W1), axis=1) > DEFAULT_PRUNE_THRESHOLD
    per_sample = np.logical_or.reduce(reads[path], axis=1) @ c
    return float(np.add.reduce(per_sample) / per_sample.size)


def reference_model_power(model, X, cost_vec):
    """``boosting.model_power`` before the read mask."""
    X = np.asarray(X, dtype=np.float64)
    c = np.asarray(cost_vec, dtype=np.float64)
    used = np.zeros(X.shape, dtype=bool)
    for e in model.ensembles:
        for t in e.trees:
            t.walk(X, used=used)
    return float((used @ c).mean())


def oracle_mask(oracle, model, X):
    """(B, F) bool from a scalar power oracle under each unit price."""
    unit = np.eye(X.shape[1])
    return np.array([[oracle(model, x[None], unit[f]) == 1.0 for f in range(X.shape[1])]
                     for x in X])


def pruned_tree(seed, depth=3, n_features=6, hidden=3):
    """A random tree with pruned columns and dead nodes (W1 all zero), whose
    constant logit ``w2 . relu(b1) + b2`` sends every row one way."""
    rng = np.random.default_rng(seed)
    tree = ObliqueTree.random(depth, n_features, 3, hidden=hidden, rng=rng)
    pruned = rng.random((tree.n_internal, n_features)) < 0.4  # (node, feature) columns
    tree.W1 = np.where(pruned[:, None, :], 0.0, tree.W1)
    dead = rng.choice(tree.n_internal, size=min(2, tree.n_internal), replace=False)
    tree.W1[dead] = 0.0
    tree.b1[dead] = rng.normal(size=(dead.size, hidden))
    tree.b2 = rng.normal(0, 0.3, size=tree.n_internal)
    tree.leaf_logits = rng.normal(size=tree.leaf_logits.shape)
    return tree


class TestObliqueTreeReads:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_scalar_walk(self, seed):
        tree = pruned_tree(seed)
        X = np.random.default_rng(10 + seed).normal(size=(30, tree.n_features))
        reads = tree.reads(X)
        assert reads.dtype == bool and reads.shape == X.shape
        assert np.array_equal(reads, oracle_mask(deployed_power_oracle, tree, X))

    def test_a_batch_of_one_and_a_row(self):
        tree = pruned_tree(5)
        x = np.random.default_rng(6).normal(size=tree.n_features)
        want = oracle_mask(deployed_power_oracle, tree, x[None])
        assert np.array_equal(tree.reads(x[None]), want)
        assert np.array_equal(tree.reads(x), want)

    def test_a_fortran_ordered_batch(self):
        tree = pruned_tree(7)
        X = np.random.default_rng(8).normal(size=(25, tree.n_features))
        assert np.array_equal(tree.reads(np.asfortranarray(X)), tree.reads(X))
        assert np.array_equal(tree.reads(np.asfortranarray(X)),
                              oracle_mask(deployed_power_oracle, tree, X))

    def test_a_tree_with_every_column_pruned_reads_nothing(self):
        tree = pruned_tree(9)
        tree.W1[...] = 0.0
        assert not tree.reads(np.ones((4, tree.n_features))).any()


@pytest.fixture(params=[BINARY, THREE_CLASS], ids=["binary", "3-class"])
def boosted(request):
    return hand_model(request.param, seed=11)


class TestBoostedReads:
    def test_matches_the_scalar_walk(self, boosted):
        X = np.random.default_rng(12).normal(size=(30, N_FEATURES))
        reads = boosted.reads(X)
        assert reads.dtype == bool and reads.shape == X.shape
        assert np.array_equal(reads, oracle_mask(power_oracle, boosted, X))

    def test_predict_is_predict_labels(self, boosted):
        X = np.random.default_rng(13).normal(size=(30, N_FEATURES))
        assert np.array_equal(boosted.predict(X), predict_labels(boosted, X))


class TestPowerIsUnchanged:
    @pytest.mark.parametrize("seed", range(6))
    def test_deployed_power_bits(self, seed):
        rng = np.random.default_rng(20 + seed)
        tree = pruned_tree(seed, depth=int(rng.integers(1, 5)),
                           n_features=int(rng.integers(2, 9)))
        c = rng.uniform(0.1, 7.0, size=tree.n_features)
        for B in (1, 7, 64):
            X = rng.normal(size=(B, tree.n_features))
            assert (cost.deployed_power(tree, X, c).hex()
                    == reference_deployed_power(tree, X, c).hex())

    @pytest.mark.parametrize("seed", range(6))
    def test_model_power_bits(self, seed):
        rng = np.random.default_rng(30 + seed)
        n_classes = int(rng.integers(2, 5))
        X = rng.normal(size=(80, N_FEATURES))
        y = rng.integers(0, n_classes, size=80)
        model = train_gbt_multiclass(X, y, GbtConfig(n_trees=3, max_depth=3))
        c = rng.uniform(0.1, 7.0, size=N_FEATURES)
        for B in (1, 7, 64):
            Xe = rng.normal(size=(B, N_FEATURES))
            assert (boosting.model_power(model, Xe, c).hex()
                    == reference_model_power(model, Xe, c).hex())
            assert (boosting.model_power(boosting.quantize_model(model), Xe, c).hex()
                    == reference_model_power(boosting.quantize_model(model), Xe, c).hex())


# each power metric with a model of its kind
POWERS = {"deployed_power": (lambda: pruned_tree(0), cost.deployed_power),
          "model_power": (lambda: hand_model(THREE_CLASS), boosting.model_power)}


class TestCharge:
    def test_prices_each_read_once_per_row(self):
        reads = np.array([[True, False, True], [False, False, False]])
        assert charge(reads, [1.0, 2.0, 4.0]) == 2.5

    @pytest.mark.parametrize("power", POWERS)
    def test_an_empty_batch_and_a_short_cost_vector_are_rejected(self, power):
        make, fn = POWERS[power]
        model = make()
        F = model.n_features
        with pytest.raises(InvalidInputError, match="nonempty"):
            fn(model, np.zeros((0, F)), np.ones(F))
        with pytest.raises(InvalidInputError, match="cost vector"):
            fn(model, np.zeros((2, F)), np.ones(F - 1))
        with pytest.raises(InvalidInputError, match="nonempty"):
            charge(np.zeros((0, F), dtype=bool), np.ones(F))
        with pytest.raises(InvalidInputError, match="cost vector"):
            charge(np.zeros((2, F), dtype=bool), np.ones(F - 1))

    @pytest.mark.parametrize("power", POWERS)
    def test_a_malformed_batch_is_reported_before_the_cost_vector(self, power):
        make, fn = POWERS[power]
        model = make()
        F = model.n_features
        with pytest.raises(InvalidInputError, match="feature batch"):
            fn(model, np.zeros((2, F + 1)), np.ones(F - 1))
        with pytest.raises(InvalidInputError, match="nonempty"):
            fn(model, np.zeros((0, F)), np.ones(F - 1))
