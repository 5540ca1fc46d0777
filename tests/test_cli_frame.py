"""The frame ``main`` runs around every command (required inputs, then the
command, then ``resolved_config.json``) and the one rule for a model's
held-out rows, as ``compress`` applies it."""

import contextlib
import io
import json

import pytest

from peot import cli
from peot.cli import EXIT_CONFIG, EXIT_DATA, main


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Two 120-window seizure sets (seeds 1 and 2), a peot and a gbt model
    trained on the seed-1 set."""
    out = tmp_path_factory.mktemp("frame")
    for seed in (1, 2):
        assert _quiet(["synth", "--task", "seizure", "--n-windows", "120",
                       "--seed", str(seed), "--out", str(out / f"seed{seed}")]) == 0
    dataset = out / "seed1" / "dataset.json"
    for model in ("peot", "gbt"):
        assert _quiet(["train", "--dataset", str(dataset), "--model", model,
                       "--epochs", "2", "--n-trees", "2", "--seed", "3",
                       "--out", str(out / model)]) == 0
    return {"own": dataset, "foreign": out / "seed2" / "dataset.json",
            "peot": out / "peot" / "model.json", "gbt": out / "gbt" / "model.json"}


# ---------------------------------------------------------------------------
# compress: fine-tune on all but the stored test fold of the model's own set


def _compress_rows(files, dataset, out, monkeypatch):
    """Run compress; the row counts it fine-tunes and scores on, and its report."""
    seen = {}
    real = cli.compression.compress_pipeline

    def record(tree, X, y, *args, X_eval=None, y_eval=None, **kwargs):
        seen["fit"] = X.shape[0]
        seen["eval"] = None if X_eval is None else X_eval.shape[0]
        return real(tree, X, y, *args, X_eval=X_eval, y_eval=y_eval, **kwargs)

    monkeypatch.setattr(cli.compression, "compress_pipeline", record)
    assert _quiet(["compress", "--model", str(files["peot"]), "--dataset", str(dataset),
                   "--epochs", "1", "--out", str(out)]) == 0
    return seen, json.loads((out / "report.json").read_text())


def test_compress_on_a_foreign_dataset_fine_tunes_on_every_row(files, tmp_path,
                                                               monkeypatch):
    seen, report = _compress_rows(files, files["foreign"], tmp_path, monkeypatch)
    assert seen == {"fit": 120, "eval": None}
    assert report["split"] == "full-dataset"


def test_compress_on_its_own_dataset_holds_out_the_stored_fold(files, tmp_path,
                                                               monkeypatch):
    n_test = len(json.loads(files["peot"].read_text())["train"]["test_indices"])
    assert n_test == 30
    seen, report = _compress_rows(files, files["own"], tmp_path, monkeypatch)
    assert seen == {"fit": 120 - n_test, "eval": n_test}
    assert report["split"] == "stored-test-fold"


def test_eval_and_compress_name_the_same_split(files, tmp_path):
    for dataset, split in (("own", "stored-test-fold"), ("foreign", "full-dataset")):
        out = tmp_path / dataset
        assert _quiet(["eval", "--model", str(files["peot"]),
                       "--dataset", str(files[dataset]), "--out", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text())["split"] == split


# ---------------------------------------------------------------------------
# required inputs: a flag or a config-file key, checked before the command

FAST = {
    "train": {"epochs": 1},
    "compress": {"epochs": 1},
    "eval": {},
    "sweep": {"k": 2, "lambdas": "0", "depths": "2", "epochs": 1, "warmup_epochs": 0},
    "report": {"k": 2},
}


def _inputs(files, command):
    return {"dataset": str(files["own"]), "model": str(files["peot"])} \
        if command in ("compress", "eval") else {"dataset": str(files["own"])}


@pytest.mark.parametrize("command, missing", [
    (command, name) for command, names in cli.REQUIRED.items() for name in names])
def test_a_missing_required_input_exits_config(files, command, missing, tmp_path,
                                               capsys):
    given = {k: v for k, v in _inputs(files, command).items() if k != missing}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FAST[command], **given}))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and error["type"] == "ConfigError"
    assert f"--{missing}" in error["message"]
    for name in given:
        assert f"--{name}" not in error["message"]
    assert out.is_dir() and not any(out.iterdir())


def test_every_required_input_is_checked():
    assert cli.REQUIRED == {"train": ("dataset",), "compress": ("model", "dataset"),
                            "eval": ("model", "dataset"), "sweep": ("dataset",),
                            "report": ("dataset",)}


@pytest.mark.parametrize("command", list(cli.REQUIRED))
def test_required_inputs_from_the_config_file_alone_run(files, command, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FAST[command], **_inputs(files, command)}))
    out = tmp_path / "out"
    assert _quiet([command, "--config", str(config), "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["command"] == command
    for name, value in _inputs(files, command).items():
        assert resolved[name] == value


# ---------------------------------------------------------------------------
# resolved_config.json is written only once the command has succeeded


def _failing(files, tmp_path):
    return {
        "holdout out of range": (["train", "--dataset", files["own"],
                                  "--holdout", "1.5"], EXIT_CONFIG),
        "gbt model": (["compress", "--model", files["gbt"],
                       "--dataset", files["own"]], EXIT_CONFIG),
        "absent dataset": (["eval", "--model", files["peot"],
                            "--dataset", tmp_path / "absent.json"], EXIT_DATA),
    }


@pytest.mark.parametrize("case", ["holdout out of range", "gbt model", "absent dataset"])
def test_a_failing_command_writes_no_resolved_config(files, case, tmp_path):
    argv, code = _failing(files, tmp_path)[case]
    out = tmp_path / "out"
    assert _quiet([*map(str, argv), "--out", str(out)]) == code
    assert out.is_dir() and not (out / "resolved_config.json").exists()
