"""``tree._validate_batch`` is the one check of the objective's inputs.

Its five entries (``loss_value``, ``loss_and_gradients``,
``cost.power_penalty``, ``cost.power_penalty_gradients`` and a warm-started
``train``) reject every malformed batch, label vector and cost vector with
``InvalidInputError`` before any forward pass runs, and the penalty's
gradient injection is built only when a gradient is asked for.
"""

import numpy as np
import pytest

from peot import cost, tree as tree_mod
from peot.errors import InvalidInputError
from peot.tree import ObliqueTree, TrainConfig

F, C = 5, 3
COST = np.arange(1.0, F + 1)


@pytest.fixture(scope="module")
def oblique():
    return ObliqueTree.random(2, F, C, hidden=2, rng=0)


def _batch(rows=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, F)), rng.integers(0, C, size=rows)


ENTRIES = {
    "loss_value": lambda t, X, y, lam, c: tree_mod.loss_value(t, X, y, lam, c),
    "loss_and_gradients": lambda t, X, y, lam, c: tree_mod.loss_and_gradients(
        t, X, y, lam, c),
    "power_penalty": lambda t, X, y, lam, c: cost.power_penalty(t, X, c),
    "power_penalty_gradients": lambda t, X, y, lam, c: cost.power_penalty_gradients(
        t, X, c),
    "train": lambda t, X, y, lam, c: tree_mod.train(
        X, y, TrainConfig(depth=2, hidden=2, epochs=1, lam=lam), c, init_tree=t),
}
LABELLED = ("loss_value", "loss_and_gradients", "train")  # the penalty takes no labels

X4, Y4 = _batch()
# name: (X, y, lam, cost vector); the penalty entries always price at lam = 1
BAD_BATCHES = {
    "no rows": (np.zeros((0, F)), np.zeros(0, dtype=np.int64), 0.5, COST),
    "narrow": (X4[:, :-1], Y4, 0.5, COST),
    "wide": (np.hstack([X4, X4[:, :1]]), Y4, 0.5, COST),
    "3-D": (X4[None], Y4, 0.5, COST),
}
BAD_LABELS = {
    "1-D X with labels": (X4[0], Y4[:1], 0.5, COST),
    "label too large": (X4, np.array([0, 1, 2, C]), 0.5, COST),
    "negative label": (X4, np.array([0, -1, 2, 1]), 0.5, COST),
    "a label short": (X4, Y4[:-1], 0.5, COST),
    "a label over": (X4, np.append(Y4, 0), 0.5, COST),
    "2-D labels": (X4, Y4[:, None], 0.5, COST),
}
BAD_PRICES = {
    "lam without prices": (X4, Y4, 0.5, None),
    "short cost vector": (X4, Y4, 0.5, COST[:-1]),
    "long cost vector": (X4, Y4, 0.5, np.append(COST, 1.0)),
    "2-D cost vector": (X4, Y4, 0.5, COST[None]),
}
CASES = [(entry, case) for entry in ENTRIES
         for case in [*BAD_BATCHES, *BAD_PRICES, *(BAD_LABELS if entry in LABELLED else ())]]


@pytest.fixture
def forward_calls(monkeypatch):
    calls = []
    original = ObliqueTree.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ObliqueTree, "forward", counted)
    return calls


@pytest.mark.parametrize("entry, case", CASES)
def test_a_malformed_input_is_rejected_before_any_forward_pass(oblique, forward_calls,
                                                               entry, case):
    X, y, lam, c = {**BAD_BATCHES, **BAD_LABELS, **BAD_PRICES}[case]
    with pytest.raises(InvalidInputError):
        ENTRIES[entry](oblique, X, y, lam, c)
    assert forward_calls == []


@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_takes_a_wellformed_batch(oblique, entry):
    ENTRIES[entry](oblique, X4, Y4, 0.5, COST)


@pytest.mark.parametrize("entry", ["loss_value", "loss_and_gradients", "train"])
def test_no_penalty_reads_no_prices(oblique, entry):
    ENTRIES[entry](oblique, X4, Y4, 0.0, COST[:-1])
    ENTRIES[entry](oblique, X4, Y4, 0.0, None)


def test_the_check_returns_checked_inputs(oblique):
    X, y, c = tree_mod._validate_batch(oblique, X4.tolist(), Y4.tolist(), 0.5, COST.tolist())
    assert X.dtype == np.float64 and X.shape == (4, F)
    assert y.dtype == np.int64 and np.array_equal(y, Y4)
    assert c.dtype == np.float64 and np.array_equal(c, COST)
    assert tree_mod._validate_batch(oblique, X4, Y4, 0.0, COST)[2] is None


def test_the_penalty_check_takes_one_row_and_no_labels(oblique):
    X, y, c = tree_mod._validate_batch(oblique, X4[0], None, 1.0, COST)
    assert X.shape == (1, F) and y is None and np.array_equal(c, COST)
    assert cost.power_penalty(oblique, X4[0], COST) == cost.power_penalty(
        oblique, X4[:1], COST)


def test_a_checked_batch_goes_through_the_batch_check_twice(oblique, monkeypatch):
    # once in ``_validate_batch`` and once in the public ``forward``
    calls = []
    original = tree_mod.feature_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tree_mod, "feature_batch", counted)
    tree_mod.loss_value(oblique, X4, Y4, 0.5, COST)
    assert len(calls) == 2
    calls.clear()
    cost.power_penalty(oblique, X4, COST)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the penalty's gradient injection is built for gradient calls only


@pytest.fixture
def injections(monkeypatch):
    """The ``dq_direct`` of every ``_penalty_pieces`` call, in order."""
    seen = []
    original = tree_mod._penalty_pieces

    def recorded(*args, **kwargs):
        pieces = original(*args, **kwargs)
        seen.append(pieces[2])
        return pieces

    monkeypatch.setattr(tree_mod, "_penalty_pieces", recorded)
    return seen


@pytest.mark.parametrize("entry", ["loss_value", "power_penalty"])
def test_a_value_only_call_builds_no_gradient_injection(oblique, injections, entry):
    ENTRIES[entry](oblique, X4, Y4, 0.5, COST)
    assert injections == [None]


@pytest.mark.parametrize("entry", ["loss_and_gradients", "power_penalty_gradients"])
def test_a_gradient_call_builds_the_gradient_injection(oblique, injections, entry):
    ENTRIES[entry](oblique, X4, Y4, 0.5, COST)
    assert len(injections) == 1 and injections[0].shape == (oblique.n_internal, 4)


def test_training_builds_an_injection_per_step_and_none_per_epoch_loss(oblique, injections):
    X, y = _batch(rows=10, seed=1)
    epochs, batch_size = 3, 4  # three steps per epoch
    tree_mod.train(X, y, TrainConfig(depth=2, hidden=2, epochs=epochs,
                                     batch_size=batch_size, lam=0.5), COST,
                   init_tree=oblique)
    steps = [d is not None for d in injections]
    assert steps == [False] + ([True] * 3 + [False]) * epochs


def test_the_six_argument_call_still_returns_the_injection(oblique):
    fw = oblique.forward(X4)
    w = np.full(4, 0.25)
    _, _, dq_direct, w1_direct = tree_mod._penalty_pieces(oblique, fw, 0.5, COST, w, True)
    r = np.add.reduce(np.abs(oblique.W1), axis=1) @ COST
    assert np.array_equal(dq_direct, 0.5 * np.outer(r, w))
    assert w1_direct.shape == oblique.W1.shape
