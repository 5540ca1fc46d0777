"""One check per input rule, shared by both model kinds.

``tree.cost_vector`` is the one check of prices: every call that reads them
rejects a NaN or infinite price with ``InvalidInputError``, while a trainer
without a penalty reads none.  ``tree.class_labels`` is the one check of
labels: every trainer, fold loop and the metrics reject a fractional,
negative or NaN label before any forward pass or split search, and bool or
integral float labels give what int labels give.  A boosted model's
``predict`` takes a batch, whatever its number of members.
"""

import numpy as np
import pytest

from peot import boosting, cost, evaluation, serialize, tree as tree_mod
from peot.boosting import GbtConfig
from peot.errors import InvalidInputError
from peot.tree import ObliqueTree, TrainConfig

F = 4
COST = np.arange(1.0, F + 1)
RNG = np.random.default_rng(5)
X = RNG.normal(size=(40, F))
Y = (X[:, 0] > 0).astype(np.int64) + (X[:, 1] > 0.5)  # three classes
TREE_CFG = TrainConfig(depth=2, hidden=2, epochs=2)
GBT_CFG = GbtConfig(n_trees=2, max_depth=2)


@pytest.fixture(scope="module")
def oblique():
    return ObliqueTree.random(2, F, 3, hidden=2, rng=0)


def _priced(value):
    c = COST.copy()
    c[2] = value
    return c


PRICES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
PRICED_CALLS = {
    "deployed_power": lambda t, c: cost.deployed_power(t, X, c),
    "model_power": lambda t, c: boosting.model_power(
        boosting.train_gbt_multiclass(X, Y, GBT_CFG), X, c),
    "loss_value": lambda t, c: tree_mod.loss_value(t, X, Y, 0.5, c),
    "power_penalty": lambda t, c: cost.power_penalty(t, X, c),
    "train": lambda t, c: tree_mod.train(X, Y, TrainConfig(depth=2, hidden=2, epochs=1,
                                                           lam=0.1), c),
    "train_gbt": lambda t, c: boosting.train_gbt(X, Y > 0, GbtConfig(n_trees=2,
                                                                     cost_lambda=0.5), c),
}


@pytest.mark.parametrize("price", PRICES)
@pytest.mark.parametrize("call", PRICED_CALLS)
def test_a_non_finite_price_is_rejected_by_every_priced_call(oblique, call, price):
    with pytest.raises(InvalidInputError, match="finite"):
        PRICED_CALLS[call](oblique, _priced(PRICES[price]))


@pytest.mark.parametrize("price", PRICES)
def test_the_cost_vector_check_rejects_a_non_finite_price(price):
    with pytest.raises(InvalidInputError, match="cost vector prices must be finite"):
        tree_mod.cost_vector(_priced(PRICES[price]), F)
    assert tree_mod.cost_vector(COST.tolist(), F).dtype == np.float64


def test_an_unpenalised_trainer_reads_no_prices():
    c = _priced(np.inf)
    for fit, cfg in ((tree_mod.train, TREE_CFG), (boosting.train_gbt_multiclass, GBT_CFG)):
        assert (serialize.dumps_canonical(fit(X, Y, cfg, c).to_doc())
                == serialize.dumps_canonical(fit(X, Y, cfg).to_doc()))


# ---------------------------------------------------------------------------
# labels


def _with(label):
    y = Y.astype(np.float64)
    y[3] = label
    return y


BAD_LABELS = {"fraction": _with(0.5), "negative": _with(-1.0), "nan": _with(np.nan),
              "inf": _with(np.inf), "nan in a list": _with(np.nan).tolist(),
              "negative int": np.where(np.arange(40) == 3, -1, Y)}
LABELLED_CALLS = {
    "train": lambda y: tree_mod.train(X, y, TREE_CFG),
    "train from a tree": lambda y: tree_mod.train(
        X, y, TREE_CFG, init_tree=ObliqueTree.random(2, F, 3, hidden=2, rng=0)),
    "train_gbt": lambda y: boosting.train_gbt(X, y, GBT_CFG),
    "train_gbt_multiclass": lambda y: boosting.train_gbt_multiclass(X, y, GBT_CFG),
    "cross_validate": lambda y: evaluation.cross_validate(
        X, y, lambda a, b, s: tree_mod.train(a, b, TREE_CFG), ObliqueTree.predict, k=2),
    "tradeoff_sweep": lambda y: evaluation.tradeoff_sweep(X, y, COST, [0.0], [2],
                                                          TREE_CFG, k=2),
    "benchmark_report": lambda y: evaluation.benchmark_report(
        X, y, COST, k=2, gbt_config=GBT_CFG, peot_config=TREE_CFG),
    "loss_value": lambda y: tree_mod.loss_value(
        ObliqueTree.random(2, F, 3, hidden=2, rng=0), X, y),
    "compute_metrics": lambda y: evaluation.compute_metrics(y, Y),
    "compute_metrics predictions": lambda y: evaluation.compute_metrics(Y, y),
    "stratified folds": lambda y: evaluation.make_folds(40, 2, "stratified", y=y),
}


@pytest.fixture
def no_search(monkeypatch):
    """Fail on any forward pass or split search."""
    def refuse(*args, **kwargs):
        raise AssertionError("a forward pass or split search ran")
    monkeypatch.setattr(ObliqueTree, "forward", refuse)
    monkeypatch.setattr(boosting._TreeBuilder, "_best_split", refuse)


@pytest.mark.parametrize("labels", BAD_LABELS)
@pytest.mark.parametrize("call", LABELLED_CALLS)
def test_a_bad_label_is_rejected_before_any_search(no_search, call, labels):
    with pytest.raises(InvalidInputError, match="labels must be"):
        LABELLED_CALLS[call](BAD_LABELS[labels])


def test_negative_multiclass_gbt_labels_are_rejected_as_by_the_tree():
    y = Y - 1  # {-1, 0, 1}
    for fit in (boosting.train_gbt_multiclass, tree_mod.train):
        with pytest.raises(InvalidInputError, match="labels must be >= 0, found -1"):
            fit(X, y, GBT_CFG if fit is boosting.train_gbt_multiclass else TREE_CFG)


def test_the_label_check_returns_int64_class_indices():
    for y in (Y, Y.tolist(), Y.astype(np.float64), Y.astype(np.uint8)):
        labels = tree_mod.class_labels(y)
        assert labels.dtype == np.int64 and np.array_equal(labels, Y)
    assert tree_mod.class_labels(np.array([True, False])).tolist() == [1, 0]
    assert tree_mod.class_labels([]).size == 0


@pytest.mark.parametrize("kind", ["bool", "float"])
def test_bool_and_integral_float_labels_train_the_same_models(kind):
    binary = Y > 0
    y = binary if kind == "bool" else binary.astype(np.float64)
    ints = binary.astype(np.int64)

    def docs(labels):
        return [serialize.dumps_canonical(m.to_doc()) for m in (
            tree_mod.train(X, labels, TREE_CFG),
            boosting.train_gbt_multiclass(X, labels, GBT_CFG))]

    assert docs(y) == docs(ints)
    assert (evaluation.compute_metrics(y, ints).to_doc()
            == evaluation.compute_metrics(ints, ints).to_doc())


# ---------------------------------------------------------------------------
# a boosted model's predict


@pytest.mark.parametrize("n_classes", [2, 3])
def test_a_boosted_predict_rejects_a_row_whatever_its_members(n_classes):
    y = Y if n_classes == 3 else (Y > 0).astype(np.int64)
    model = boosting.train_gbt_multiclass(X, y, GBT_CFG)
    assert len(model.ensembles) == (1 if n_classes == 2 else 3)
    with pytest.raises(InvalidInputError):
        model.predict(X[0])
    with pytest.raises(InvalidInputError):
        boosting.predict_labels(model, X[0])
    assert np.array_equal(model.predict(X[:1]), model.predict(X)[:1])
