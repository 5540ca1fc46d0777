"""A cost table with a non-finite price fails every command that prices
features: given by flag it exits 2, stored in ``model.json`` it exits 3, and
neither writes a model, metrics, sweep or report file.  ``json`` reads
``Infinity``, so such a table is one a user can write."""

import contextlib
import io
import json

import pytest

from peot import boosting, tree as tree_mod
from peot.cli import EXIT_CONFIG, EXIT_DATA, main
from peot.data import Dataset, load_container, save_container
from peot.features import default_feature_spec, extract_features

INFINITE_TABLE = '{"line_length": 1, "variance": 3, "band_power": Infinity}'
OUTPUTS = ("model.json", "metrics.json", "report.json", "report.csv", "sweep.json",
           "sweep.csv", "resolved_config.json")


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 120-window seizure recording, its feature matrix, the infinite
    table, and a model of each kind trained on the recording and on the
    matrix (whose pipeline is null, so a flag prices its features)."""
    out = tmp_path_factory.mktemp("prices")
    recording, matrix = out / "dataset.json", out / "matrix.json"
    assert _quiet(["synth", "--task", "seizure", "--n-windows", "120", "--seed", "1",
                   "--out", str(out)]) == 0
    rec = load_container(recording)
    X = extract_features(rec, default_feature_spec(rec.n_channels, rec.fs))
    save_container(Dataset(X=X, y=rec.labels), matrix)
    table = out / "infinite.json"
    table.write_text(INFINITE_TABLE)
    models = {}
    for dataset, prefix in ((recording, ""), (matrix, "matrix-")):
        for kind in ("peot", "gbt"):
            d = out / f"{prefix}{kind}"
            assert _quiet(["train", "--dataset", str(dataset), "--model", kind,
                           "--epochs", "1", "--n-trees", "2", "--out", str(d)]) == 0
            models[prefix + kind] = d / "model.json"
    return {"recording": str(recording), "table": str(table), "models": models}


@pytest.fixture
def no_training(monkeypatch):
    """Fail on any training: a bad price is rejected before the first model."""
    def refuse(*args, **kwargs):
        raise AssertionError("a model was trained")
    monkeypatch.setattr(tree_mod, "train", refuse)
    monkeypatch.setattr(boosting, "train_gbt", refuse)


def _assert_failed(code, expected, out, capsys):
    assert code == expected
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == {EXIT_CONFIG: "config", EXIT_DATA: "data"}[expected]
    assert "finite" in error["message"]
    assert not [name for name in OUTPUTS if (out / name).exists()]


@pytest.mark.parametrize("kind", ["peot", "gbt", "pegb"])
def test_train_with_an_infinite_price_exits_config(files, no_training, kind, tmp_path,
                                                   capsys):
    out = tmp_path / "out"
    code = _quiet(["train", "--dataset", files["recording"], "--model", kind,
                   "--epochs", "1", "--n-trees", "2", "--cost-table", files["table"],
                   "--out", str(out)])
    _assert_failed(code, EXIT_CONFIG, out, capsys)


COMMANDS = {
    "compress": ["compress", "--model", "matrix-peot", "--epochs", "1"],
    "eval peot": ["eval", "--model", "matrix-peot"],
    "eval gbt": ["eval", "--model", "matrix-gbt"],
    "sweep": ["sweep", "--k", "2", "--lambdas", "0,0.1", "--depths", "2", "--epochs", "1",
              "--warmup-epochs", "0"],
    "report": ["report", "--k", "2"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_given_an_infinite_price_exits_config(files, no_training, command,
                                                        tmp_path, capsys):
    argv = [str(files["models"].get(a, a)) for a in COMMANDS[command]]
    out = tmp_path / "out"
    code = _quiet([*argv, "--dataset", files["recording"], "--cost-table", files["table"],
                   "--out", str(out)])
    _assert_failed(code, EXIT_CONFIG, out, capsys)


@pytest.mark.parametrize("command, kind", [("compress", "peot"), ("eval", "peot"),
                                           ("eval", "gbt")])
def test_a_stored_infinite_price_exits_data(files, command, kind, tmp_path, capsys):
    doc = json.loads(files["models"][kind].read_text())
    doc["pipeline"]["cost_table"]["band_power"] = float("inf")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert "Infinity" in model.read_text()
    out = tmp_path / "out"
    extra = ["--epochs", "1"] if command == "compress" else []
    code = _quiet([command, "--model", str(model), "--dataset", files["recording"], *extra,
                   "--out", str(out)])
    _assert_failed(code, EXIT_DATA, out, capsys)
