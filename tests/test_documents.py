"""The stored-document codec: every required key of every stored kind, wrong
types, dtypes and shapes are one ``DataError`` naming the key path; optional
keys fall back to their defaults; save -> load -> save is byte-identical; and
through the CLI every malformed document exits 3."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

from peot import serialize
from peot.boosting import GbtConfig, GbtEnsemble, GbtOvR, quantize_model, train_gbt_multiclass
from peot.cli import EXIT_DATA, main
from peot.compression import CompressionState, prune, share
from peot.data import Dataset, Recording, load_container, save_container
from peot.errors import DataError, InvalidInputError
from peot.serialize import decode_array, encode_array
from peot.tree import ObliqueTree, TrainConfig


def _labelled(n_classes, n=60, n_features=3):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, n_features))
    return X, np.arange(n) % n_classes


def _compressed_tree(bits):
    tree = ObliqueTree.random(2, 3, 2, 2, rng=1)
    pruned, mask = prune(tree, 0.5)
    return share(pruned, mask, bits)[0] if bits else pruned


def _recording():
    rng = np.random.default_rng(1)
    return Recording(windows=rng.normal(size=(6, 2, 16)), fs=128.0,
                     labels=np.arange(6) % 2, meta={"source": "test"})


# Each stored kind: a document of it, the class that reads it, and where in
# that document the kind sits ("" for the whole document).
def _documents():
    gbt = train_gbt_multiclass(*_labelled(2), GbtConfig(n_trees=2, max_depth=2))
    ovr = quantize_model(train_gbt_multiclass(*_labelled(3), GbtConfig(n_trees=2, max_depth=2)))
    rec = _recording()
    return {
        "recording": (Recording, rec.to_doc(), ""),
        "dataset": (Dataset, Dataset(X=np.ones((3, 2)), y=[0, 1, 0]).to_doc(), ""),
        "train-config": (TrainConfig, TrainConfig().to_doc(), ""),
        "gbt-config": (GbtConfig, GbtConfig().to_doc(), ""),
        "oblique-tree": (ObliqueTree, _compressed_tree(1).to_doc(), ""),
        "compression-state": (ObliqueTree, _compressed_tree(1).to_doc(), "compression"),
        "codebook": (ObliqueTree, _compressed_tree(1).to_doc(), "compression.codebook"),
        "gbt-ensemble": (GbtEnsemble, gbt.to_doc(), ""),
        "axis-tree": (GbtEnsemble, gbt.to_doc(), "trees[1]"),
        "gbt-ovr": (GbtOvR, ovr.to_doc(), ""),
        "member": (GbtOvR, ovr.to_doc(), "ensembles[2]"),
    }


DOCUMENTS = _documents()
AXIS_TREE = ("feature", "threshold", "left", "right", "value", "node_depth")
REQUIRED = {
    "recording": ("windows", "fs", "labels"),
    "dataset": ("X", "y"),
    "train-config": (),
    "gbt-config": (),
    "oblique-tree": ("depth", "n_features", "n_classes", "hidden", "W1", "b1", "w2",
                     "b2", "leaf_logits", "mu", "sigma"),
    "compression-state": ("pruned",),
    "codebook": ("centroids", "assignments"),
    "gbt-ensemble": ("trees", "learning_rate", "base_score", "n_features"),
    "axis-tree": AXIS_TREE,
    "gbt-ovr": ("ensembles",),
    "member": ("trees", "learning_rate", "base_score", "n_features"),
}
OPTIONAL = {
    "recording": ("meta",),
    "dataset": ("feature_names", "meta"),
    "train-config": tuple(TrainConfig().to_doc()),
    "gbt-config": tuple(GbtConfig().to_doc()),
    "oblique-tree": ("compression",),
    "compression-state": ("codebook",),
    "gbt-ensemble": ("quant", "meta"),
    "member": ("quant", "meta"),
}


def _parts(where):
    return where.replace("[", ".").replace("]", "").split(".") if where else ()


def _at(doc, where):
    """The sub-document at the key path ``where`` of ``doc``."""
    for part in _parts(where):
        doc = doc[int(part) if part.isdigit() else part]
    return doc


def _attribute(obj, where):
    """The stored object at the key path ``where`` of ``obj``."""
    for part in _parts(where):
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


def _read(kind, edit):
    cls, doc, where = DOCUMENTS[kind]
    doc = copy.deepcopy(doc)
    edit(_at(doc, where))
    return cls.from_doc(doc, "stored.json")


def _prefixed(where, key):
    return f"{where}.{key}" if where else key


@pytest.mark.parametrize("kind, key", [(k, key) for k, keys in REQUIRED.items() for key in keys])
def test_a_missing_required_key_names_its_path(kind, key):
    with pytest.raises(DataError) as info:
        _read(kind, lambda doc: doc.pop(key))
    assert str(info.value) == f"stored.json: {_prefixed(DOCUMENTS[kind][2], key)} is missing"


@pytest.mark.parametrize("kind, key", [(k, key) for k, keys in OPTIONAL.items() for key in keys])
def test_a_missing_optional_key_takes_the_default(kind, key):
    cls, _, where = DOCUMENTS[kind]
    obj = _attribute(_read(kind, lambda doc: doc.pop(key)), where)
    if cls in (TrainConfig, GbtConfig):
        assert getattr(obj, key) == getattr(cls(), key)
    else:
        assert getattr(obj, key) == ({} if key == "meta" else None)


def test_the_required_keys_are_the_stored_keys_without_a_default():
    for kind, (cls, doc, where) in DOCUMENTS.items():
        stored = set(_at(doc, where)) - {"format", "version", "kind"}
        assert stored == set(REQUIRED[kind]) | set(OPTIONAL.get(kind, ())), kind


@pytest.mark.parametrize("kind, key, value, named, expected", [
    ("recording", "fs", "abc", "fs", "expected a number, found 'abc'"),
    ("recording", "fs", True, "fs", "expected a number, found True"),
    ("recording", "meta", [], "meta", "expected a JSON object, found []"),
    ("dataset", "feature_names", ["a", 2], "feature_names[1]", "expected a string, found 2"),
    ("oblique-tree", "depth", "x", "depth", "expected an integer, found 'x'"),
    ("oblique-tree", "hidden", 2.0, "hidden", "expected an integer, found 2.0"),
    ("oblique-tree", "compression", [], "compression", "expected a JSON object, found []"),
    ("oblique-tree", "W1", 5, "W1", "malformed array document"),
    ("train-config", "depth", "3", "depth", "expected an integer, found '3'"),
    ("train-config", "class_weight", 1, "class_weight", "expected a string, found 1"),
    ("gbt-config", "learning_rate", "0.3", "learning_rate", "expected a number, found '0.3'"),
    ("gbt-ensemble", "n_features", None, "n_features", "expected an integer, found None"),
    ("gbt-ensemble", "n_features", True, "n_features", "expected an integer, found True"),
    ("gbt-ensemble", "trees", {}, "trees", "expected a JSON list, found {}"),
    ("gbt-ensemble", "quant", 3, "quant", "expected a JSON object, found 3"),
    ("gbt-ovr", "ensembles", [[]], "ensembles[0]", "expected a JSON object, found []"),
    ("member", "base_score", "0", "ensembles[2].base_score", "expected a number, found '0'"),
])
def test_a_value_of_the_wrong_type_names_its_path(kind, key, value, named, expected):
    with pytest.raises(DataError) as info:
        _read(kind, lambda doc: doc.__setitem__(key, value))
    assert str(info.value).startswith(f"stored.json: {named}: ")
    assert expected in str(info.value)


@pytest.mark.parametrize("cls, doc", [(TrainConfig, {"depth": 0}),
                                      (GbtConfig, {"learning_rate": 2.0})])
def test_a_stored_config_is_validated_after_decoding(cls, doc):
    with pytest.raises(InvalidInputError):
        cls.from_doc(doc)


def test_a_config_container_that_is_not_an_object_is_a_data_error():
    with pytest.raises(DataError, match="train.config: expected a JSON object, found \\[1, 2\\]"):
        TrainConfig.from_doc([1, 2], "model.json", "train.config")


@pytest.mark.parametrize("kind, key, dtype", [
    ("axis-tree", "feature", np.float64),
    ("axis-tree", "threshold", np.float32),
    ("compression-state", "pruned", bool),
    ("codebook", "assignments", np.int32),
    ("oblique-tree", "mu", np.int64),
    ("recording", "labels", np.uint8),
])
def test_an_array_of_another_dtype_names_its_path(kind, key, dtype):
    def retype(doc):
        doc[key] = encode_array(decode_array(doc[key]).astype(dtype))
    with pytest.raises(DataError) as info:
        _read(kind, retype)
    assert str(info.value).startswith(
        f"stored.json: {_prefixed(DOCUMENTS[kind][2], key)}: stored dtype ")


def test_a_dataset_matrix_keeps_its_stored_dtype():
    ds = Dataset.from_doc(Dataset(X=np.ones((2, 3), dtype=np.uint8), y=[0, 1]).to_doc())
    assert ds.X.dtype == np.uint8


def test_a_prune_mask_is_uint8_on_disk_and_bool_in_memory():
    doc = _compressed_tree(None).compression.to_doc()
    assert doc["pruned"]["dtype"] == "|u1"
    assert CompressionState.from_doc(doc).pruned.dtype == bool


@pytest.mark.parametrize("kind, key, message", [
    ("oblique-tree", "W1", "W1 must have shape"),
    ("recording", "windows", "one label per window"),
    ("dataset", "y", "one label per row"),
])
def test_an_array_of_the_wrong_shape_names_the_object(kind, key, message):
    def shorten(doc):
        doc[key] = encode_array(decode_array(doc[key])[:-1])
    with pytest.raises(DataError) as info:
        _read(kind, shorten)
    assert str(info.value).startswith("stored.json: ") and message in str(info.value)


def test_a_constructor_error_in_a_nested_object_names_its_path():
    def bad_fs(doc):
        doc["fs"] = -1.0
    with pytest.raises(DataError, match="stored.json: sampling rate must be positive"):
        _read("recording", bad_fs)
    cls, doc, _ = DOCUMENTS["gbt-ovr"]
    doc = copy.deepcopy(doc)
    doc["ensembles"][1]["kind"] = "oblique-tree"
    with pytest.raises(DataError, match="stored.json: ensembles\\[1\\]: expected kind"):
        GbtOvR.from_doc(doc, "stored.json")


# ---------------------------------------------------------------------------
# save -> load -> save


def _container_bytes(obj, path):
    save_container(obj, path)
    first = path.read_bytes()
    save_container(load_container(path), path)
    return first, path.read_bytes()


@pytest.mark.parametrize("make", [
    _recording,
    lambda: Dataset(X=np.random.default_rng(2).normal(size=(5, 3)), y=[0, 1, 2, 0, 1]),
    lambda: Dataset(X=np.arange(12, dtype=np.uint8).reshape(4, 3), y=[1, 0, 1, 0],
                    feature_names=["a", "b", "c"], meta={"source": "idx"}),
], ids=["recording", "float-dataset", "uint8-dataset"])
def test_container_save_load_save_is_byte_identical(make, tmp_path):
    first, second = _container_bytes(make(), tmp_path / "c.json")
    assert first == second


@pytest.mark.parametrize("obj", [
    TrainConfig(),
    TrainConfig(depth=4, lam=0.25, class_weight="balanced", optimizer="adaptive", seed=9),
    GbtConfig(),
    GbtConfig(n_trees=3, cost_lambda=0.5),
    _compressed_tree(None).compression,
    _compressed_tree(2).compression,
    _compressed_tree(2).compression.codebook,
], ids=["train-config", "train-config-set", "gbt-config", "gbt-config-set",
        "compression-state", "compression-state-codebook", "codebook"])
def test_save_load_save_is_byte_identical(obj, tmp_path):
    serialize.write_document(obj.to_doc(), tmp_path / "a.json")
    back = type(obj).from_doc(serialize.read_document(tmp_path / "a.json"))
    serialize.write_document(back.to_doc(), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_a_non_ascii_document_is_a_data_error(tmp_path):
    path = tmp_path / "dataset.json"
    doc = _recording().to_doc()
    doc["meta"]["note"] = "é"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(DataError, match="not an ASCII JSON document"):
        serialize.read_document(path)


def test_unknown_kinds_are_data_errors():
    with pytest.raises(DataError, match="f.json: unknown kind 'gbt-ovr'"):
        serialize.decode_kind(DOCUMENTS["gbt-ovr"][1], {"recording": Recording}, "f.json")
    with pytest.raises(DataError, match="f.json: core: unknown kind \\['x'\\]"):
        serialize.model_from_doc({"kind": ["x"]}, "f.json", "core")


# ---------------------------------------------------------------------------
# through the command line


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    out = tmp_path_factory.mktemp("stored")
    dataset = out / "dataset.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--task", "seizure", "--n-windows", "120", "--seed", "1",
                     "--out", str(out)]) == 0
        assert main(["train", "--dataset", str(dataset), "--model", "peot", "--epochs", "1",
                     "--out", str(out / "peot")]) == 0
        assert main(["compress", "--model", str(out / "peot" / "model.json"), "--dataset",
                     str(dataset), "--epochs", "1", "--out", str(out / "compressed")]) == 0
        assert main(["train", "--dataset", str(dataset), "--model", "gbt", "--n-trees", "2",
                     "--out", str(out / "gbt")]) == 0
    docs = {name: json.loads((out / name / "model.json").read_text())
            for name in ("peot", "compressed", "gbt")}
    docs["dataset"] = json.loads(dataset.read_text())
    return docs


def _drop(where):
    def edit(doc):
        parent, _, key = where.rpartition(".")
        del _at(doc, parent)[key]
    return edit


def _put(where, value):
    def edit(doc):
        parent, _, key = where.rpartition(".")
        _at(doc, parent)[key] = value
    return edit


def _retype(where, dtype):
    def edit(doc):
        parent, _, key = where.rpartition(".")
        holder = _at(doc, parent)
        holder[key] = encode_array(decode_array(holder[key]).astype(dtype))
    return edit


def _narrow(where):
    def edit(doc):
        parent, _, key = where.rpartition(".")
        holder = _at(doc, parent)
        holder[key] = encode_array(decode_array(holder[key])[..., :-1])
    return edit


# (command, model, edited document, edit, key path the error names)
CLI_CASES = {
    "core.W1-missing": ("eval", "peot", "model", _drop("core.W1"), "core.W1"),
    "core.depth-missing": ("eval", "peot", "model", _drop("core.depth"), "core.depth"),
    "core.mu-missing": ("eval", "peot", "model", _drop("core.mu"), "core.mu"),
    "gbt-learning_rate-missing": ("eval", "gbt", "model", _drop("core.learning_rate"),
                                  "core.learning_rate"),
    "gbt-feature-missing": ("eval", "gbt", "model", _drop("core.trees[0].feature"),
                            "core.trees[0].feature"),
    "pruned-missing": ("eval", "compressed", "model", _drop("core.compression.pruned"),
                       "core.compression.pruned"),
    "windows-missing": ("eval", "peot", "dataset", _drop("windows"), "windows"),
    "fs-missing": ("eval", "peot", "dataset", _drop("fs"), "fs"),
    "labels-missing": ("eval", "peot", "dataset", _drop("labels"), "labels"),
    "fs-string": ("eval", "peot", "dataset", _put("fs", "abc"), "fs"),
    "depth-string": ("eval", "peot", "model", _put("core.depth", "x"), "core.depth"),
    "gbt-feature-float64": ("eval", "gbt", "model", _retype("core.trees[0].feature", np.float64),
                            "core.trees[0].feature"),
    "W1-wrong-shape": ("eval", "peot", "model", _narrow("core.W1"), "W1 must have shape"),
    "config-list": ("compress", "peot", "model", _put("train.config", [1, 2]), "train.config"),
    "config-depth-string": ("compress", "peot", "model", _put("train.config.depth", "3"),
                            "train.config.depth"),
    "n_classes-string": ("eval", "peot", "model", _put("train.n_classes", "abc"),
                         "train.n_classes"),
    "n_classes-fraction": ("eval", "peot", "model", _put("train.n_classes", 1.5),
                           "train.n_classes"),
    "n_classes-bool": ("eval", "peot", "model", _put("train.n_classes", True),
                       "train.n_classes"),
    "n_classes-zero": ("eval", "peot", "model", _put("train.n_classes", 0), "train.n_classes"),
}


@pytest.mark.parametrize("case", CLI_CASES.values(), ids=CLI_CASES.keys())
def test_a_malformed_document_exits_data_and_names_the_key(stored, case, tmp_path, capsys):
    command, model, edited, edit, named = case
    docs = {"model": copy.deepcopy(stored[model]), "dataset": copy.deepcopy(stored["dataset"])}
    edit(docs[edited])
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    extra = ["--epochs", "1"] if command == "compress" else []
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--model", str(paths["model"]), "--dataset",
                     str(paths["dataset"]), *extra, "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError"
    assert error["message"].startswith(f"{paths[edited]}: ") and named in error["message"]
    assert not (tmp_path / "out" / "model.json").exists()
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_a_non_ascii_dataset_exits_data(stored, tmp_path, capsys):
    doc = copy.deepcopy(stored["dataset"])
    doc["meta"]["note"] = "é"
    dataset, model = tmp_path / "dataset.json", tmp_path / "model.json"
    dataset.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    model.write_text(json.dumps(stored["peot"]))
    code = main(["eval", "--model", str(model), "--dataset", str(dataset),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "not an ASCII JSON document" in error["message"]


def test_the_class_count_is_checked_before_featurising(stored, tmp_path, capsys, monkeypatch):
    import peot.cli
    calls = []
    monkeypatch.setattr(peot.cli, "extract_features", lambda *a: calls.append(a))
    doc = copy.deepcopy(stored["peot"])
    doc["train"]["n_classes"] = 1
    model, dataset = tmp_path / "model.json", tmp_path / "dataset.json"
    model.write_text(json.dumps(doc))
    dataset.write_text(json.dumps(stored["dataset"]))
    code = main(["eval", "--model", str(model), "--dataset", str(dataset),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "train.n_classes is 1, the dataset has 2 classes" in error["message"]
    assert calls == []
