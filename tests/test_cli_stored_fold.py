"""The stored test fold of a model document: validated, and the only rows
``peot eval`` featurises when the dataset is the one the model was trained on."""

import contextlib
import io
import json

import pytest

from peot import cli
from peot.cli import EXIT_DATA, main
from peot.data import Dataset, load_container, save_container
from peot.features import default_feature_spec, extract_features
from peot.synth import synth_recording


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """A 200-window seizure recording and its feature matrix as a Dataset."""
    out = tmp_path_factory.mktemp("data")
    rec = synth_recording("seizure", 200, seed=4)
    save_container(rec, out / "recording.json")
    X = extract_features(rec, default_feature_spec(rec.n_channels, rec.fs))
    save_container(Dataset(X=X, y=rec.labels), out / "matrix.json")
    return {"recording": out / "recording.json", "matrix": out / "matrix.json"}


@pytest.fixture(scope="module")
def models(datasets, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    trained = {}
    for kind, path in datasets.items():
        for model in ("peot", "gbt"):
            d = out / f"{kind}-{model}"
            assert _quiet(["train", "--dataset", str(path), "--model", model,
                           "--epochs", "1", "--n-trees", "2", "--seed", "3",
                           "--out", str(d)]) == 0
            trained[kind, model] = d / "model.json"
    return trained


@pytest.mark.parametrize("kind", ["recording", "matrix"])
@pytest.mark.parametrize("model", ["peot", "gbt"])
def test_eval_of_the_fold_alone_writes_the_bytes_of_a_full_featurisation(
        datasets, models, kind, model, tmp_path, monkeypatch):
    dataset, model_path = datasets[kind], models[kind, model]
    te = json.loads(model_path.read_text())["train"]["test_indices"]
    assert te
    featurized_rows = []
    real_featurize = cli._featurize

    def record_rows(container, resolved, stored=None):
        out = real_featurize(container, resolved, stored)
        featurized_rows.append(out[0].shape[0])
        return out

    monkeypatch.setattr(cli, "_featurize", record_rows)
    assert _quiet(["eval", "--model", str(model_path), "--dataset", str(dataset),
                   "--out", str(tmp_path / "fold")]) == 0
    assert featurized_rows == [len(te)]

    full = load_container(dataset)

    def featurize_all_then_index(container, resolved, stored=None):
        X, y, c, pipeline = real_featurize(full, resolved, stored)
        return X[te], y[te], c, pipeline

    monkeypatch.setattr(cli, "_featurize", featurize_all_then_index)
    assert _quiet(["eval", "--model", str(model_path), "--dataset", str(dataset),
                   "--out", str(tmp_path / "full")]) == 0
    fold = (tmp_path / "fold" / "metrics.json").read_bytes()
    assert json.loads(fold)["split"] == "stored-test-fold"
    assert fold == (tmp_path / "full" / "metrics.json").read_bytes()


@pytest.mark.parametrize("command", ["compress", "eval"])
@pytest.mark.parametrize("stored, message", [
    ([5000], "5000"),
    ([-1, -2, -3], "-1"),
    ([0, 0, 0], "repeats"),
    ([1.5], "1.5"),
    ("0", "list"),
])
def test_bad_stored_test_indices_exit_data(datasets, models, command, stored, message,
                                           tmp_path, capsys):
    doc = json.loads(models["recording", "peot"].read_text())
    doc["train"]["test_indices"] = stored
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = ["--epochs", "1"] if command == "compress" else []
    code = main([command, "--model", str(edited), "--dataset", str(datasets["recording"]),
                 *extra, "--out", str(out)])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError"
    assert "test_indices" in error["message"] and message in error["message"]
    assert not (out / "model.json").exists() and not (out / "metrics.json").exists()
