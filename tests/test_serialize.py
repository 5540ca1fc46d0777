import numpy as np
import pytest

from peot import serialize
from peot.boosting import (
    GbtConfig,
    GbtEnsemble,
    GbtOvR,
    predict_gbt,
    predict_labels,
    quantize_model,
    train_gbt_multiclass,
)
from peot.compression import compress_pipeline
from peot.tree import TrainConfig, train


def labelled(n_classes, n=90, n_features=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    score = X[:, 0] + 0.3 * X[:, 1]
    edges = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
    return X, np.digitize(score, edges).astype(np.int64)


def compressed_tree():
    X, y = labelled(2)
    cfg = TrainConfig(depth=2, hidden=2, epochs=5, lam=0.05, seed=1)
    c = np.arange(1.0, 5.0)
    tree = train(X, y, cfg, cost_vec=c)
    return compress_pipeline(tree, X, y, 0.5, 2, cfg, cost_vec=c)[0]


def boosted(n_classes, pegb):
    X, y = labelled(n_classes)
    cfg = GbtConfig(n_trees=3, max_depth=2, cost_lambda=0.5 if pegb else 0.0)
    model = train_gbt_multiclass(X, y, cfg, cost_vec=np.arange(1.0, 5.0))
    return quantize_model(model) if pegb else model


MODELS = {
    "compressed-oblique-tree": compressed_tree,
    "binary-gbt": lambda: boosted(2, pegb=False),
    "binary-pegb": lambda: boosted(2, pegb=True),
    "5-class-pegb": lambda: boosted(5, pegb=True),
}


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS.keys())
def test_save_load_save_is_byte_identical(make, tmp_path):
    serialize.write_document(make().to_doc(), tmp_path / "a.json")
    loaded = serialize.model_from_doc(serialize.read_document(tmp_path / "a.json"))
    serialize.write_document(loaded.to_doc(), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("n_classes, kind", [(2, "gbt-ensemble"), (5, "gbt-ovr")])
def test_boosted_document_kind(n_classes, kind):
    model = boosted(n_classes, pegb=True)
    assert len(model.ensembles) == (1 if n_classes == 2 else n_classes)
    assert model.to_doc()["kind"] == kind


def test_hand_written_ensemble_document_is_a_one_member_model():
    # margin = 0.1 + 0.5 * leaf; the root sends x1 <= 0 to leaf -1, else +1
    tree = {
        "feature": np.array([1, -1, -1], dtype=np.int64),
        "threshold": np.array([0.0, np.nan, np.nan]),
        "left": np.array([1, -1, -1], dtype=np.int64),
        "right": np.array([2, -1, -1], dtype=np.int64),
        "value": np.array([0.0, -1.0, 1.0]),
        "node_depth": np.array([0, 1, 1], dtype=np.int64),
    }
    doc = {
        "format": "peot", "version": 1, "kind": "gbt-ensemble",
        "learning_rate": 0.5, "base_score": 0.1, "n_features": 2,
        "quant": None, "meta": {},
        "trees": [{k: serialize.encode_array(v) for k, v in tree.items()}],
    }
    model = serialize.model_from_doc(doc)
    assert isinstance(model, GbtOvR) and len(model.ensembles) == 1
    X = np.random.default_rng(2).normal(size=(25, 2))
    labels = predict_labels(model, X)
    assert np.array_equal(labels, predict_gbt(GbtEnsemble.from_doc(doc), X)[2])
    assert np.array_equal(labels, (X[:, 1] > 0).astype(np.int64))
    assert model.to_doc() == doc
