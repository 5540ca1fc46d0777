"""The CLI surface: each subcommand's flags, the defaults they resolve to,
the defaults <- config file <- flags precedence, and the choice checks on
config-file values."""

import argparse
import contextlib
import io
import json

import pytest

from peot import cli
from peot.cli import EXIT_CONFIG, main

COMMON = {
    "--out": ("out", None, True),
    "--config": ("config", None, False),
    "--seed": ("seed", None, False),
}

# option string -> (dest, choices, required), per subcommand
FLAGS = {
    "ingest": {
        "--format": ("format", ("idx", "csv"), False),
        "--images": ("images", None, False),
        "--labels": ("labels", None, False),
        "--signal": ("signal", None, False),
        "--labels-csv": ("labels_csv", None, False),
        "--window-len": ("window_len", None, False),
        "--overlap": ("overlap", None, False),
    },
    "synth": {
        "--task": ("task", ("seizure", "tremor", "finger"), False),
        "--n-windows": ("n_windows", None, False),
    },
    "train": {
        "--dataset": ("dataset", None, False),
        "--model": ("model", ("peot", "gbt", "pegb"), False),
        "--depth": ("depth", None, False),
        "--hidden": ("hidden", None, False),
        "--epochs": ("epochs", None, False),
        "--batch-size": ("batch_size", None, False),
        "--learning-rate": ("learning_rate", None, False),
        "--optimizer": ("optimizer", ("momentum", "adaptive"), False),
        "--lam": ("lam", None, False),
        "--warmup-epochs": ("warmup_epochs", None, False),
        "--class-weight": ("class_weight", ("balanced",), False),
        "--holdout": ("holdout", None, False),
        "--n-trees": ("n_trees", None, False),
        "--max-depth": ("max_depth", None, False),
        "--gbt-learning-rate": ("gbt_learning_rate", None, False),
        "--cost-lambda": ("cost_lambda", None, False),
        "--feature-spec": ("feature_spec", None, False),
        "--cost-table": ("cost_table", None, False),
    },
    "compress": {
        "--model": ("model", None, False),
        "--dataset": ("dataset", None, False),
        "--sparsity": ("sparsity", None, False),
        "--share-bits": ("share_bits", None, False),
        "--epochs": ("epochs", None, False),
        "--lam": ("lam", None, False),
        "--feature-spec": ("feature_spec", None, False),
        "--cost-table": ("cost_table", None, False),
    },
    "eval": {
        "--model": ("model", None, False),
        "--dataset": ("dataset", None, False),
        "--feature-spec": ("feature_spec", None, False),
        "--cost-table": ("cost_table", None, False),
    },
    "sweep": {
        "--dataset": ("dataset", None, False),
        "--lambdas": ("lambdas", None, False),
        "--depths": ("depths", None, False),
        "--k": ("k", None, False),
        "--hidden": ("hidden", None, False),
        "--epochs": ("epochs", None, False),
        "--warmup-epochs": ("warmup_epochs", None, False),
        "--learning-rate": ("learning_rate", None, False),
        "--class-weight": ("class_weight", ("balanced",), False),
        "--scheme": ("scheme", ("blocks", "stratified"), False),
        "--feature-spec": ("feature_spec", None, False),
        "--cost-table": ("cost_table", None, False),
    },
    "report": {
        "--dataset": ("dataset", None, False),
        "--k": ("k", None, False),
        "--task-preset": ("task_preset", ("finger", "seizure", "tremor"), False),
        "--scheme": ("scheme", ("blocks", "stratified"), False),
        "--provenance": ("provenance", None, False),
        "--feature-spec": ("feature_spec", None, False),
        "--cost-table": ("cost_table", None, False),
    },
}

FEATURES = {"feature_spec": None, "cost_table": None}

# what each subcommand resolves when given only --out (PEOT_SEED unset)
DEFAULTS = {
    "ingest": {
        "format": None, "images": None, "labels": None, "signal": None,
        "labels_csv": None, "window_len": 256, "overlap": 0.0, "seed": 0,
    },
    "synth": {"task": None, "n_windows": 800, "seed": 0},
    "train": {
        "dataset": None, "model": "peot", "depth": 3, "hidden": 8, "epochs": 30,
        "batch_size": 32, "learning_rate": 0.1, "optimizer": "momentum",
        "lam": 0.0, "warmup_epochs": 0, "class_weight": None, "seed": 0,
        "holdout": 0.25, "n_trees": 8, "max_depth": 4, "gbt_learning_rate": 0.3,
        "cost_lambda": 0.5, **FEATURES,
    },
    "compress": {
        "model": None, "dataset": None, "sparsity": 0.9, "share_bits": 4,
        "epochs": 15, "seed": 0, "lam": None, **FEATURES,
    },
    "eval": {"model": None, "dataset": None, "seed": 0, **FEATURES},
    "sweep": {
        "dataset": None, "lambdas": "0,0.01,0.1,1", "depths": "3,4", "k": 5,
        "hidden": 4, "epochs": 120, "warmup_epochs": 40, "learning_rate": 0.1,
        "class_weight": None, "seed": 0, "scheme": "blocks", **FEATURES,
    },
    "report": {
        "dataset": None, "k": 5, "seed": 0, "task_preset": None,
        "scheme": "blocks", "provenance": "synthetic", **FEATURES,
    },
}


def _subparsers():
    # argparse offers no public way to list a parser's arguments
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_subcommands():
    assert list(_subparsers()) == list(FLAGS)


@pytest.mark.parametrize("command", list(FLAGS))
def test_flags(command):
    flags = {}
    for action in _subparsers()[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        (option,) = action.option_strings
        choices = None if action.choices is None else tuple(action.choices)
        flags[option] = (action.dest, choices, action.required)
        assert action.default is None, option
    assert flags == {**COMMON, **FLAGS[command]}


class _Resolved(Exception):
    pass


def _resolve_only(monkeypatch, argv, env_seed=None):
    """The options a command resolves from ``argv``; the command stops there."""
    resolve = cli._resolve

    def capture(*args, **kwargs):
        raise _Resolved(resolve(*args, **kwargs))

    if env_seed is None:
        monkeypatch.delenv("PEOT_SEED", raising=False)
    else:
        monkeypatch.setenv("PEOT_SEED", env_seed)
    monkeypatch.setattr(cli, "_resolve", capture)
    with pytest.raises(_Resolved) as caught:
        main(argv)
    return caught.value.args[0]


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_resolved_defaults(command, monkeypatch, tmp_path):
    resolved = _resolve_only(monkeypatch, [command, "--out", str(tmp_path)])
    assert resolved == DEFAULTS[command]
    assert [type(resolved[k]) for k in DEFAULTS[command]] == \
        [type(v) for v in DEFAULTS[command].values()]


def test_flags_override_config_file_over_defaults(monkeypatch, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth": 2, "epochs": 7, "model": "gbt"}))
    resolved = _resolve_only(monkeypatch, [
        "train", "--config", str(config), "--epochs", "5", "--seed", "9",
        "--out", str(tmp_path)])
    assert resolved == {**DEFAULTS["train"], "depth": 2, "epochs": 5,
                        "model": "gbt", "seed": 9}


def test_seed_from_environment(monkeypatch, tmp_path):
    resolved = _resolve_only(monkeypatch, ["eval", "--out", str(tmp_path)],
                             env_seed="17")
    assert resolved == {**DEFAULTS["eval"], "seed": 17}


@pytest.fixture(scope="module")
def seizure_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--task", "seizure", "--n-windows", "200",
                     "--out", str(out), "--seed", "1"]) == 0
    return out / "dataset.json"


def test_default_train_resolved_config(seizure_dataset, monkeypatch, tmp_path):
    monkeypatch.delenv("PEOT_SEED", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--dataset", str(seizure_dataset),
                     "--out", str(tmp_path)]) == 0
    expected = {"command": "train", **DEFAULTS["train"],
                "dataset": str(seizure_dataset)}
    assert (tmp_path / "resolved_config.json").read_text() == \
        json.dumps(expected, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("command, key, value, output", [
    ("train", "model", "svm", "model.json"),
    ("train", "optimizer", "sgd", "model.json"),
    ("train", "class_weight", "inverse", "model.json"),
    ("report", "task_preset", "emg", "report.json"),
    ("report", "scheme", "random", "report.json"),
    ("sweep", "scheme", "random", "sweep.csv"),
    ("synth", "task", "emg", "dataset.json"),
    ("ingest", "format", "xml", "dataset.json"),
])
def test_config_value_outside_choices_exits_config(seizure_dataset, command, key,
                                                   value, output, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    inputs = {"synth": [], "ingest": []}.get(command, ["--dataset", str(seizure_dataset)])
    out = tmp_path / "out"
    code = main([command, *inputs, "--config", str(config), "--out", str(out)])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and key in error["message"]
    assert not (out / output).exists()
