"""``model.json`` read as one stored document: every required key and every
wrong type exits 3 naming its key path, a stored pipeline that does not fit
the recording exits 3 while the same spec or table given by flag exits 2,
and save -> load -> save gives the same bytes for every model ``train`` and
``compress`` write."""

import contextlib
import copy
import io
import json
import re

import pytest

from peot import serialize
from peot.cli import EXIT_CONFIG, EXIT_DATA, ModelDocument, _load_model_doc, main
from peot.data import Dataset, load_container, save_container
from peot.errors import ConfigError
from peot.features import (
    DEFAULT_COST_TABLE,
    default_feature_spec,
    extract_features,
    validate_cost_table,
)


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 120-window seizure recording, its feature matrix, and a model of
    each kind ``train`` and ``compress`` write."""
    out = tmp_path_factory.mktemp("models")
    recording, matrix = out / "dataset.json", out / "matrix.json"
    assert _quiet(["synth", "--task", "seizure", "--n-windows", "120", "--seed", "1",
                   "--out", str(out)]) == 0
    rec = load_container(recording)
    X = extract_features(rec, default_feature_spec(rec.n_channels, rec.fs))
    save_container(Dataset(X=X, y=rec.labels), matrix)
    models = {}
    for dataset, prefix in ((recording, ""), (matrix, "matrix-")):
        for kind in ("peot", "gbt", "pegb"):
            d = out / f"{prefix}{kind}"
            assert _quiet(["train", "--dataset", str(dataset), "--model", kind,
                           "--epochs", "1", "--n-trees", "2", "--out", str(d)]) == 0
            models[prefix + kind] = d / "model.json"
        d = out / f"{prefix}compressed"
        assert _quiet(["compress", "--model", str(models[prefix + "peot"]), "--dataset",
                       str(dataset), "--epochs", "1", "--out", str(d)]) == 0
        models[prefix + "compressed"] = d / "model.json"
    return {"recording": recording, "models": models}


def _at(doc, where):
    """The holder of the last key of the path ``where`` in ``doc``, and that key."""
    parts = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", where)]
    for part in parts[:-1]:
        doc = doc[part]
    return doc, parts[-1]


DROP = object()


def _edited(doc, where, value):
    doc = copy.deepcopy(doc)
    holder, key = _at(doc, where)
    if value is DROP:
        del holder[key]
    else:
        holder[key] = value
    return doc


def _run(command, doc, dataset, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    extra = ["--epochs", "1"] if command == "compress" else []
    code = _quiet([command, "--model", str(path), "--dataset", str(dataset), *extra,
                   "--out", str(tmp_path / "out")])
    return code, path


def _assert_data_error(code, path, named, tmp_path, capsys):
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "data" and error["type"] == "DataError"
    assert error["message"].startswith(f"{path}: ") and named in error["message"]
    assert not (tmp_path / "out" / "model.json").exists()
    assert not (tmp_path / "out" / "metrics.json").exists()


# (key path, stored value or DROP, the key path the error names)
REQUIRED = [(key, DROP, key) for key in (
    "format", "version", "kind", "model_type", "core", "pipeline", "train",
    "pipeline.feature_spec", "pipeline.cost_table", "pipeline.feature_spec[0].channel",
    "pipeline.feature_spec[0].kind", "train.config", "train.seed", "train.holdout",
    "train.dataset_fingerprint")] + [
    ("pipeline.feature_spec[2].band", DROP, "pipeline.feature_spec[2]"),  # a band power
]
WRONG = [
    ("kind", "gbt-ovr", "kind"),
    ("model_type", 5, "model_type"),
    ("core", None, "core"),
    ("pipeline", [], "pipeline"),
    ("pipeline.feature_spec", {}, "pipeline.feature_spec"),
    ("pipeline.feature_spec", [], "pipeline"),
    ("pipeline.feature_spec", "x", "pipeline.feature_spec"),
    ("pipeline.feature_spec", None, "pipeline"),  # with a cost table
    ("pipeline.feature_spec[0]", "x", "pipeline.feature_spec[0]"),
    ("pipeline.feature_spec[0].channel", 1.0, "pipeline.feature_spec[0].channel"),
    ("pipeline.feature_spec[0].channel", "0", "pipeline.feature_spec[0].channel"),
    ("pipeline.feature_spec[0].channel", True, "pipeline.feature_spec[0].channel"),
    ("pipeline.feature_spec[0].channel", -1, "pipeline.feature_spec[0]"),
    ("pipeline.feature_spec[0].kind", 5, "pipeline.feature_spec[0].kind"),
    ("pipeline.feature_spec[0].kind", "spikes", "pipeline.feature_spec[0]"),
    ("pipeline.feature_spec[0].band", [1.0, 4.0], "pipeline.feature_spec[0]"),
    ("pipeline.feature_spec[2].band", [1.0, 4.0, 8.0], "pipeline.feature_spec[2].band"),
    ("pipeline.feature_spec[2].band", [1.0], "pipeline.feature_spec[2].band"),
    ("pipeline.feature_spec[2].band", {"lo": 1.0}, "pipeline.feature_spec[2].band"),
    ("pipeline.feature_spec[2].band[0]", "1", "pipeline.feature_spec[2].band[0]"),
    ("pipeline.cost_table", [], "pipeline.cost_table"),
    ("pipeline.cost_table", {}, "pipeline"),
    ("pipeline.cost_table", None, "pipeline"),  # with a feature spec
    ("pipeline.cost_table", {"line_length": 1.0}, "pipeline"),  # prices no band power
    ("pipeline.cost_table.line_length", "abc", "pipeline"),
    ("pipeline.cost_table.line_length", True, "pipeline"),
    ("pipeline.cost_table.line_length", 0, "pipeline"),
    ("pipeline.cost_table.spikes", 1.0, "pipeline"),
    ("train", [], "train"),
    ("train.config", [1, 2], "train.config"),
    ("train.seed", "7", "train.seed"),
    ("train.seed", 1.5, "train.seed"),
    ("train.holdout", "x", "train.holdout"),
    ("train.dataset_fingerprint", 5, "train.dataset_fingerprint"),
    ("train.test_indices", "0", "train.test_indices"),
    ("train.test_indices[0]", 1.5, "train.test_indices[0]"),
    ("train.n_classes", "abc", "train.n_classes"),
    ("compressed", [], "compressed"),
]


@pytest.mark.parametrize("command", ["eval", "compress"])
@pytest.mark.parametrize("where, value, named", REQUIRED + WRONG,
                         ids=[f"{w}={'missing' if v is DROP else json.dumps(v)}"
                              for w, v, _ in REQUIRED + WRONG])
def test_a_malformed_model_document_exits_data_naming_the_key(
        files, command, where, value, named, tmp_path, capsys):
    doc = json.loads(files["models"]["peot"].read_text())
    code, path = _run(command, _edited(doc, where, value), files["recording"], tmp_path)
    _assert_data_error(code, path, named, tmp_path, capsys)


@pytest.mark.parametrize("command", ["eval", "compress"])
def test_a_stored_spec_the_recording_cannot_take_exits_data(files, command, tmp_path,
                                                            capsys):
    doc = json.loads(files["models"]["peot"].read_text())
    doc = _edited(doc, "pipeline.feature_spec[0].channel", 99)
    code, _ = _run(command, doc, files["recording"], tmp_path)
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError"
    assert "pipeline.feature_spec" in error["message"] and "99" in error["message"]
    assert not (tmp_path / "out" / "model.json").exists()
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_a_malformed_gbt_model_document_exits_data(files, tmp_path, capsys):
    doc = json.loads(files["models"]["pegb"].read_text())
    code, path = _run("eval", _edited(doc, "train.n_classes", 2.0), files["recording"],
                      tmp_path)
    _assert_data_error(code, path, "train.n_classes", tmp_path, capsys)


# ---------------------------------------------------------------------------
# the same spec or table given by flag is configuration


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


SPEC_FLAGS = {
    "entry-without-kind": [{"channel": 0}],
    "object": {},
    "empty": [],
    "channel-99": [{"channel": 99, "kind": "line_length"}],
    "fractional-channel": [{"channel": 1.0, "kind": "line_length"}],
    "band-of-three": [{"channel": 0, "kind": "band_power", "band": [1.0, 4.0, 8.0]}],
}
TABLE_FLAGS = {
    "unpriced-kind": {"line_length": 1.0},
    "string-cost": {**DEFAULT_COST_TABLE, "line_length": "abc"},
    "bool-cost": {**DEFAULT_COST_TABLE, "line_length": True},
    "empty": {},
    "list": [],
}


@pytest.mark.parametrize("flag, doc", [("--feature-spec", d) for d in SPEC_FLAGS.values()]
                         + [("--cost-table", d) for d in TABLE_FLAGS.values()],
                         ids=[f"spec-{k}" for k in SPEC_FLAGS] + [f"table-{k}" for k in TABLE_FLAGS])
def test_a_bad_spec_or_table_given_by_flag_exits_config(files, flag, doc, tmp_path, capsys):
    out = tmp_path / "out"
    code = _quiet(["train", "--dataset", str(files["recording"]), "--epochs", "1",
                   flag, _write(tmp_path / "flag.json", doc), "--out", str(out)])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config"
    assert not (out / "model.json").exists()


def test_a_spec_given_by_flag_is_stored_and_read_back(files, tmp_path):
    spec = [{"channel": 1, "kind": "band_power", "band": [8, 12]},
            {"channel": 0, "kind": "variance"}]
    table = {"band_power": 20, "line_length": 1.0, "variance": 2}
    out = tmp_path / "out"
    assert _quiet(["train", "--dataset", str(files["recording"]), "--epochs", "1",
                   "--feature-spec", _write(tmp_path / "spec.json", spec), "--cost-table",
                   _write(tmp_path / "table.json", table), "--out", str(out)]) == 0
    stored = json.loads((out / "model.json").read_text())["pipeline"]
    assert stored["feature_spec"] == [
        {"channel": 1, "kind": "band_power", "band": [8.0, 12.0]},
        {"channel": 0, "kind": "variance"}]
    assert json.dumps(stored["cost_table"]) == json.dumps(table, sort_keys=True)
    assert _quiet(["eval", "--model", str(out / "model.json"), "--dataset",
                   str(files["recording"]), "--out", str(tmp_path / "eval")]) == 0


@pytest.mark.parametrize("cost", ["abc", True, False, None, [1.0], 0, -1.0, float("nan")])
def test_a_cost_that_is_not_a_positive_number_is_a_config_error(cost):
    with pytest.raises(ConfigError, match="line_length"):
        validate_cost_table({**DEFAULT_COST_TABLE, "line_length": cost})


def test_integer_costs_are_numbers():
    validate_cost_table({"line_length": 1, "variance": 3, "band_power": 25})


# ---------------------------------------------------------------------------
# save -> load -> save


MODELS = ["peot", "compressed", "gbt", "pegb",
          "matrix-peot", "matrix-compressed", "matrix-gbt", "matrix-pegb"]


@pytest.mark.parametrize("name", MODELS)
def test_save_load_save_is_byte_identical(files, name):
    path = files["models"][name]
    raw = path.read_text()
    doc, model = _load_model_doc(path)
    assert serialize.dumps_canonical(doc.to_doc()) == raw
    assert serialize.dumps_canonical(model.to_doc()) == serialize.dumps_canonical(doc.core)


@pytest.mark.parametrize("name", ["matrix-peot", "matrix-compressed", "matrix-gbt"])
def test_a_model_of_a_feature_matrix_stores_a_null_pipeline(files, name):
    doc = json.loads(files["models"][name].read_text())
    assert doc["pipeline"] == {"feature_spec": None, "cost_table": None}


def test_absent_optional_keys_stay_absent(files):
    doc = json.loads(files["models"]["peot"].read_text())
    assert "compressed" not in doc
    line_length = doc["pipeline"]["feature_spec"][0]
    assert line_length == {"channel": 0, "kind": "line_length"}
    again = ModelDocument.from_doc(doc).to_doc()
    assert "compressed" not in again
    assert again["pipeline"]["feature_spec"][0] == line_length
    assert "compressed" in json.loads(files["models"]["compressed"].read_text())


def test_a_null_band_or_compressed_is_read_as_absent(files):
    doc = json.loads(files["models"]["peot"].read_text())
    edited = _edited(_edited(doc, "pipeline.feature_spec[0].band", None), "compressed", None)
    assert serialize.dumps_canonical(ModelDocument.from_doc(edited).to_doc()) \
        == serialize.dumps_canonical(doc)


def test_optional_train_keys_fall_back_to_their_defaults(files, tmp_path):
    doc = json.loads(files["models"]["peot"].read_text())
    for key in ("test_indices", "n_classes"):
        del doc["train"][key]
    read = ModelDocument.from_doc(doc)
    assert read.train.test_indices == [] and read.train.n_classes is None
    code, _ = _run("eval", doc, files["recording"], tmp_path)
    assert code == 0
    assert json.loads((tmp_path / "out" / "metrics.json").read_text())["split"] \
        == "full-dataset"
