import math

import numpy as np
import pytest

from peot.boosting import (
    AxisTree,
    GbtConfig,
    GbtEnsemble,
    GbtOvR,
    model_power,
    predict_gbt,
    predict_labels,
    quantize_model,
    train_gbt,
    train_gbt_multiclass,
)
from peot.compression import model_size_bits
from peot.errors import InvalidInputError


class TestTrainingSetValidation:
    @pytest.mark.parametrize("fit", [train_gbt, train_gbt_multiclass])
    def test_empty_dataset_rejected(self, fit):
        with pytest.raises(InvalidInputError):
            fit(np.zeros((0, 2)), np.zeros(0, dtype=int), GbtConfig())

    @pytest.mark.parametrize("fit", [train_gbt, train_gbt_multiclass])
    def test_label_count_must_match_rows(self, fit):
        with pytest.raises(InvalidInputError):
            fit(np.zeros((4, 2)), np.array([0, 1, 2]), GbtConfig())


# ---------------------------------------------------------------------------
# one boosted-model type: sizing and deployed power

N_FEATURES = 5


def full_tree(depth, rng, n_features=N_FEATURES):
    """Complete axis tree: 2^depth - 1 internal nodes, 2^depth leaves."""
    n = 2 ** (depth + 1) - 1
    node = np.arange(n)
    internal = node < 2 ** depth - 1
    return AxisTree(
        feature=np.where(internal, rng.integers(0, n_features, n), -1),
        threshold=np.where(internal, rng.normal(size=n), np.nan),
        left=np.where(internal, 2 * node + 1, -1),
        right=np.where(internal, 2 * node + 2, -1),
        value=np.where(internal, 0.0, rng.normal(size=n)),
        node_depth=np.floor(np.log2(node + 1)).astype(np.int64),
    )


def hand_model(tree_depths, seed=0):
    """One member per entry of ``tree_depths``, each a list of tree depths."""
    rng = np.random.default_rng(seed)
    return GbtOvR([GbtEnsemble([full_tree(d, rng) for d in depths], 0.3,
                               float(rng.normal()), N_FEATURES)
                   for depths in tree_depths])


BINARY = [[1, 2, 3]]
THREE_CLASS = [[1, 2], [3], [2, 2, 1]]


def closed_form_bits(tree_depths, threshold_bits, leaf_bits):
    idx_bits = math.ceil(math.log2(N_FEATURES))
    total = 0
    for depths in tree_depths:
        for d in depths:
            total += (2 ** d - 1) * (idx_bits + threshold_bits) + 2 ** d * leaf_bits
    return total


class TestSize:
    @pytest.mark.parametrize("depths", [BINARY, THREE_CLASS])
    def test_dense_float32(self, depths):
        model = hand_model(depths)
        assert model_size_bits(model, "dense-float32") == closed_form_bits(depths, 32, 32)

    @pytest.mark.parametrize("depths", [BINARY, THREE_CLASS])
    def test_quantized_gbt(self, depths):
        model = quantize_model(hand_model(depths))
        assert model_size_bits(model, "quantized-gbt") == closed_form_bits(depths, 10, 3)

    def test_bare_ensemble_is_a_one_member_model(self):
        model = hand_model(BINARY)
        assert (model_size_bits(model.ensembles[0], "dense-float32")
                == model_size_bits(model, "dense-float32"))

    @pytest.mark.parametrize("depths", [BINARY, THREE_CLASS])
    def test_quantized_accounting_needs_a_quantized_model(self, depths):
        with pytest.raises(InvalidInputError):
            model_size_bits(hand_model(depths), "quantized-gbt")


def power_oracle(model, X, c):
    """Scalar walk per sample over every tree of every member."""
    total = 0.0
    for x in X:
        read = set()
        for ensemble in model.ensembles:
            for t in ensemble.trees:
                node = 0
                while t.feature[node] >= 0:
                    read.add(int(t.feature[node]))
                    go_right = x[t.feature[node]] > t.threshold[node]
                    node = t.right[node] if go_right else t.left[node]
        total += sum(c[f] for f in read)
    return total / len(X)


@pytest.fixture(params=[BINARY, THREE_CLASS], ids=["binary", "3-class"])
def boosted(request):
    return hand_model(request.param, seed=3)


class TestModelPower:
    def test_matches_scalar_walk(self, boosted):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, N_FEATURES))
        c = rng.uniform(0.5, 3.0, size=N_FEATURES)
        assert model_power(boosted, X, c) == pytest.approx(power_oracle(boosted, X, c),
                                                           rel=1e-12)

    def test_empty_batch_rejected(self, boosted):
        with pytest.raises(InvalidInputError):
            model_power(boosted, np.zeros((0, N_FEATURES)), np.ones(N_FEATURES))

    @pytest.mark.parametrize("n_cols", [N_FEATURES - 1, N_FEATURES + 1])
    def test_wrong_column_count_rejected(self, boosted, n_cols):
        with pytest.raises(InvalidInputError):
            model_power(boosted, np.zeros((3, n_cols)), np.ones(N_FEATURES))

    def test_short_cost_vector_rejected(self, boosted):
        with pytest.raises(InvalidInputError):
            model_power(boosted, np.zeros((3, N_FEATURES)), np.ones(N_FEATURES - 1))


class TestOneMemberModel:
    def test_binary_task_trains_a_one_member_model(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(np.int64)
        model = train_gbt_multiclass(X, y, GbtConfig(n_trees=3))
        assert isinstance(model, GbtOvR) and len(model.ensembles) == 1
        assert np.array_equal(predict_labels(model, X),
                              predict_gbt(model.ensembles[0], X)[2])

    def test_multiclass_label_is_the_top_margin(self):
        model = hand_model(THREE_CLASS, seed=6)
        X = np.random.default_rng(7).normal(size=(30, N_FEATURES))
        margins = np.stack([e.margins(X) for e in model.ensembles])
        assert np.array_equal(predict_labels(model, X), margins.argmax(axis=0))
