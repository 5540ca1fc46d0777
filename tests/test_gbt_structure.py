"""A boosted tree's node arrays must describe a tree: one or more nodes,
arrays of one length, leaves exactly where ``feature < 0`` with children -1,
an internal node's children after it and in range, and split features below
the ensemble's ``n_features``.  Built or stored, a tree that breaks this is
rejected (a stored one exits 3) instead of failing or looping in ``walk``."""

import contextlib
import io
import json
import signal

import numpy as np
import pytest

from peot.boosting import AxisTree, GbtConfig, GbtEnsemble, GbtOvR, train_gbt
from peot.cli import EXIT_DATA, main
from peot.errors import DataError, InvalidInputError
from peot.serialize import decode_array, encode_array


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _stump_and_leaves():
    """Node 0 splits feature 1 into the leaves 1 and 2."""
    return {"feature": [1, -1, -1], "threshold": [0.5, np.nan, np.nan],
            "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -1.0, 1.0],
            "node_depth": [0, 1, 1]}


def _tree(**changes):
    arrays = {**_stump_and_leaves(), **changes}
    return AxisTree(**{name: np.asarray(v, dtype=np.float64 if name in ("threshold", "value")
                                        else np.int64) for name, v in arrays.items()})


def test_a_well_formed_tree_walks():
    tree = _tree()
    assert tree.walk([[0.0, 0.0], [0.0, 1.0]]).tolist() == [1, 2]


BROKEN = {
    "no-nodes": {name: [] for name in _stump_and_leaves()},
    "short-value": {"value": [0.0, -1.0]},
    "long-left": {"left": [1, -1, -1, -1]},
    "child-out-of-range": {"left": [99, -1, -1]},
    "own-child": {"left": [0, -1, -1]},
    "child-before-parent": {"feature": [1, 0, -1], "left": [1, 0, -1], "right": [2, 2, -1]},
    "negative-child": {"right": [-1, -1, -1]},
    "leaf-with-children": {"left": [1, 2, -1], "right": [2, 2, -1]},
    "internal-marked-leaf": {"feature": [-1, -1, -1]},
}


@pytest.mark.parametrize("changes", BROKEN.values(), ids=BROKEN.keys())
def test_a_broken_tree_is_rejected(changes):
    with pytest.raises(InvalidInputError):
        _tree(**changes)


def test_node_arrays_of_another_shape_are_rejected():
    arrays = {name: np.asarray(v).reshape(1, 3) for name, v in _stump_and_leaves().items()}
    with pytest.raises(InvalidInputError):
        AxisTree(**arrays)


def test_a_split_feature_beyond_the_ensemble_is_rejected():
    with pytest.raises(InvalidInputError, match="n_features"):
        GbtEnsemble([_tree()], 0.3, 0.0, n_features=1)
    GbtEnsemble([_tree()], 0.3, 0.0, n_features=2)


def test_members_of_a_boosted_model_share_n_features():
    two, three = (GbtEnsemble([_tree()], 0.3, 0.0, n) for n in (2, 3))
    GbtOvR([two, two])
    with pytest.raises(InvalidInputError, match="n_features"):
        GbtOvR([two, three])
    with pytest.raises(InvalidInputError):
        GbtOvR([])


def test_a_stored_model_of_mixed_members_is_a_data_error():
    two, three = (GbtEnsemble([_tree()], 0.3, 0.0, n) for n in (2, 3))
    doc = GbtOvR([two, two, two]).to_doc()
    doc["ensembles"][1] = three.to_doc()
    with pytest.raises(DataError, match="m.json"):
        GbtOvR.from_doc(doc, "m.json")


def test_trained_trees_pass_the_check():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    model = train_gbt(X, (X[:, 2] > 0).astype(np.int64), GbtConfig(n_trees=3, max_depth=3))
    for t in model.trees:
        AxisTree(*(getattr(t, name) for name in _stump_and_leaves()))


# ---------------------------------------------------------------------------
# a stored GBT model through ``peot eval``


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in the body once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def gbt_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("gbt")
    assert _quiet(["synth", "--task", "seizure", "--n-windows", "120", "--seed", "1",
                   "--out", str(out)]) == 0
    assert _quiet(["train", "--dataset", str(out / "dataset.json"), "--model", "gbt",
                   "--n-trees", "2", "--out", str(out / "gbt")]) == 0
    return out / "dataset.json", json.loads((out / "gbt" / "model.json").read_text())


def _set(name, index, value):
    def edit(arrays):
        arrays[name][index] = value
        return arrays
    return edit


def _drop_last(name):
    def edit(arrays):
        arrays[name] = arrays[name][:-1]
        return arrays
    return edit


def _empty(arrays):
    return {name: a[:0] for name, a in arrays.items()}


STORED = {
    "left-99": (_set("left", 0, 99), "core.trees[0]"),
    "left-0": (_set("left", 0, 0), "core.trees[0]"),
    "feature-999": (_set("feature", 0, 999), "core"),
    "value-dropped": (_drop_last("value"), "core.trees[0]"),
    "no-nodes": (_empty, "core.trees[0]"),
}


@pytest.mark.parametrize("edit, named", STORED.values(), ids=STORED.keys())
def test_a_stored_broken_tree_exits_data(gbt_model, edit, named, tmp_path, capsys):
    dataset, doc = gbt_model
    doc = json.loads(json.dumps(doc))
    stored = doc["core"]["trees"][0]
    arrays = edit({name: decode_array(stored[name]).copy() for name in _stump_and_leaves()})
    stored.update({name: encode_array(a) for name, a in arrays.items()})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with _deadline(20):  # a cycle of nodes would loop in ``walk`` for ever
        code = _quiet(["eval", "--model", str(path), "--dataset", str(dataset),
                       "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError"
    assert error["message"].startswith(f"{path}: {named}")
    assert not (tmp_path / "out" / "metrics.json").exists()
