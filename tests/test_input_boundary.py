"""Every public entry point that takes a feature batch or a cost vector
rejects a malformed one with ``InvalidInputError``, for both model kinds."""

import numpy as np
import pytest

from peot import boosting, cost, tree as tree_mod
from peot.boosting import GbtConfig
from peot.errors import InvalidInputError
from peot.tree import ObliqueTree, TrainConfig

F = 5
BAD_BATCHES = {
    "narrow": np.zeros((3, F - 1)),
    "wide": np.zeros((3, F + 1)),
    "3-D": np.zeros((2, 3, F)),
}
BAD_ROWS = {"short": np.zeros(F - 1), "long": np.zeros(F + 1), "3-D": np.zeros((1, 1, F))}
COST = np.arange(1.0, F + 1)


@pytest.fixture(scope="module")
def oblique():
    return ObliqueTree.random(2, F, 3, hidden=2, rng=0)


@pytest.fixture(scope="module", params=["binary", "one-vs-rest"])
def boosted(request):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, F))
    y = rng.integers(0, 2 if request.param == "binary" else 3, size=60)
    return boosting.train_gbt_multiclass(X, y, GbtConfig(n_trees=2, max_depth=2))


def _labels(X):
    return np.zeros(np.shape(X)[0], dtype=np.int64)


OBLIQUE_BATCH_CALLS = {
    "forward": lambda t, X: t.forward(X),
    "route": lambda t, X: t.route(X),
    "predict": lambda t, X: t.predict(X),
    "predict_soft": lambda t, X: t.predict_soft(X),
    "path_probabilities": lambda t, X: t.path_probabilities(X),
    "loss_value": lambda t, X: tree_mod.loss_value(t, X, _labels(X)),
    "loss_and_gradients": lambda t, X: tree_mod.loss_and_gradients(t, X, _labels(X)),
    "power_penalty": lambda t, X: cost.power_penalty(t, X, COST),
    "power_penalty_gradients": lambda t, X: cost.power_penalty_gradients(t, X, COST),
    "deployed_power": lambda t, X: cost.deployed_power(t, X, COST),
    "train from the tree": lambda t, X: tree_mod.train(
        X, _labels(X), TrainConfig(depth=2, hidden=2, epochs=1), init_tree=t),
}
OBLIQUE_ROW_CALLS = {
    "predict_single_path": lambda t, x: t.predict_single_path(x),
    "routing_probability": lambda t, x: t.routing_probability(0, x),
}
BOOSTED_BATCH_CALLS = {
    "margins": lambda m, X: m.ensembles[0].margins(X),
    "predict_gbt": lambda m, X: boosting.predict_gbt(m.ensembles[0], X),
    "predict_labels": lambda m, X: boosting.predict_labels(m, X),
    "model_power": lambda m, X: boosting.model_power(m, X, COST),
}


@pytest.mark.parametrize("call", OBLIQUE_BATCH_CALLS)
def test_an_oblique_tree_takes_a_batch_of_its_width(oblique, call):
    OBLIQUE_BATCH_CALLS[call](oblique, np.random.default_rng(2).normal(size=(4, F)))


@pytest.mark.parametrize("batch", BAD_BATCHES)
@pytest.mark.parametrize("call", OBLIQUE_BATCH_CALLS)
def test_an_oblique_tree_rejects_a_malformed_batch(oblique, call, batch):
    with pytest.raises(InvalidInputError):
        OBLIQUE_BATCH_CALLS[call](oblique, BAD_BATCHES[batch])


@pytest.mark.parametrize("call", OBLIQUE_ROW_CALLS)
def test_an_oblique_tree_takes_a_row_of_its_width(oblique, call):
    OBLIQUE_ROW_CALLS[call](oblique, np.ones(F))


@pytest.mark.parametrize("row", BAD_ROWS)
@pytest.mark.parametrize("call", OBLIQUE_ROW_CALLS)
def test_an_oblique_tree_rejects_a_malformed_row(oblique, call, row):
    with pytest.raises(InvalidInputError):
        OBLIQUE_ROW_CALLS[call](oblique, BAD_ROWS[row])


@pytest.mark.parametrize("call", BOOSTED_BATCH_CALLS)
def test_a_boosted_model_takes_a_batch_of_its_width(boosted, call):
    BOOSTED_BATCH_CALLS[call](boosted, np.random.default_rng(2).normal(size=(4, F)))


@pytest.mark.parametrize("batch", BAD_BATCHES)
@pytest.mark.parametrize("call", BOOSTED_BATCH_CALLS)
def test_a_boosted_model_rejects_a_malformed_batch(boosted, call, batch):
    with pytest.raises(InvalidInputError):
        BOOSTED_BATCH_CALLS[call](boosted, BAD_BATCHES[batch])


def test_tree_calls_take_a_row_and_batch_only_calls_reject_it(oblique, boosted):
    x = np.ones(F)
    assert isinstance(oblique.predict(x), int)
    assert cost.deployed_power(oblique, x, COST) == cost.deployed_power(oblique, x[None], COST)
    assert cost.power_penalty(oblique, x, COST) == cost.power_penalty(oblique, x[None], COST)
    with pytest.raises(InvalidInputError):
        tree_mod.loss_value(oblique, x, [0])
    with pytest.raises(InvalidInputError):
        boosted.ensembles[0].margins(x)
    with pytest.raises(InvalidInputError):
        boosting.model_power(boosted, x, COST)


@pytest.mark.parametrize("call", ["deployed_power", "power_penalty", "loss_value", "train"])
def test_an_oblique_tree_rejects_an_empty_batch(oblique, call):
    calls = {**OBLIQUE_BATCH_CALLS, "train": OBLIQUE_BATCH_CALLS["train from the tree"]}
    with pytest.raises(InvalidInputError):
        calls[call](oblique, np.zeros((0, F)))


SHORT, LONG = np.ones(F - 1), np.ones(F + 1)


@pytest.mark.parametrize("c", [SHORT, LONG, np.ones((1, F))], ids=["short", "long", "2-D"])
def test_deployed_power_rejects_a_cost_vector_of_another_length(oblique, c):
    with pytest.raises(InvalidInputError, match="cost vector"):
        cost.deployed_power(oblique, np.ones((3, F)), c)


@pytest.mark.parametrize("c", [SHORT, LONG], ids=["short", "long"])
def test_model_power_rejects_a_cost_vector_of_another_length(boosted, c):
    with pytest.raises(InvalidInputError, match="cost vector"):
        boosting.model_power(boosted, np.ones((3, F)), c)


@pytest.mark.parametrize("fn", [tree_mod.loss_value, tree_mod.loss_and_gradients])
def test_the_objective_with_a_penalty_rejects_a_short_cost_vector(oblique, fn):
    X = np.random.default_rng(3).normal(size=(4, F))
    with pytest.raises(InvalidInputError, match="cost vector"):
        fn(oblique, X, _labels(X), lam=0.5, cost_vec=SHORT)
    fn(oblique, X, _labels(X), lam=0.0, cost_vec=SHORT)  # no penalty, no prices read


def test_training_with_a_penalty_rejects_a_short_cost_vector():
    X = np.random.default_rng(4).normal(size=(20, F))
    with pytest.raises(InvalidInputError, match="cost vector"):
        tree_mod.train(X, X[:, 0] > 0, TrainConfig(depth=1, hidden=2, epochs=1, lam=0.1),
                       cost_vec=SHORT)


def test_the_penalty_rejects_a_short_cost_vector(oblique):
    for fn in (cost.power_penalty, cost.power_penalty_gradients):
        with pytest.raises(InvalidInputError, match="cost vector"):
            fn(oblique, np.ones((3, F)), SHORT)
