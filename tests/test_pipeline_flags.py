"""``compress`` and ``eval`` featurise a recording with the pipeline its model
stores, so a ``--feature-spec`` or ``--cost-table`` beside such a model is a
config error (exit 2) naming the flag, raised before the dataset is read and
with no output written.  A model of a feature matrix stores no spec, and
there the flags still apply (``test_cli_prices.py`` runs its matrix cases)."""

import contextlib
import dataclasses
import io
import json

import pytest

from peot import cli, data
from peot.cli import EXIT_CONFIG, main

INFINITE_TABLE = '{"line_length": 1, "variance": 3, "band_power": Infinity}'
CHANNEL_99 = '[{"channel": 99, "kind": "line_length"}]'
GOOD_TABLE = '{"line_length": 1, "variance": 3, "band_power": 25}'


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 120-window seed-1 seizure recording, a PEOT and a GBT model trained
    on it, and the flag files."""
    out = tmp_path_factory.mktemp("flags")
    assert _quiet(["synth", "--task", "seizure", "--n-windows", "120", "--seed", "1",
                   "--out", str(out)]) == 0
    paths = {"dataset": out / "dataset.json"}
    for kind in ("peot", "gbt"):
        assert _quiet(["train", "--dataset", str(paths["dataset"]), "--model", kind,
                       "--epochs", "1", "--n-trees", "2", "--out", str(out / kind)]) == 0
        paths[kind] = out / kind / "model.json"
    for name, text in (("infinite", INFINITE_TABLE), ("channel-99", CHANNEL_99),
                       ("good-table", GOOD_TABLE)):
        paths[name] = out / f"{name}.json"
        paths[name].write_text(text)
    return paths


CASES = {
    "eval peot --cost-table infinite": ("eval", "peot", "--cost-table", "infinite"),
    "eval gbt --cost-table infinite": ("eval", "gbt", "--cost-table", "infinite"),
    "eval peot --cost-table good": ("eval", "peot", "--cost-table", "good-table"),
    "eval peot --feature-spec channel-99": ("eval", "peot", "--feature-spec", "channel-99"),
    "compress --cost-table infinite": ("compress", "peot", "--cost-table", "infinite"),
    "compress --feature-spec channel-99": ("compress", "peot", "--feature-spec", "channel-99"),
}


@pytest.mark.parametrize("case", CASES)
def test_a_pipeline_flag_beside_a_stored_pipeline_exits_config(files, case, tmp_path,
                                                               capsys, monkeypatch):
    command, model, flag, value = CASES[case]
    loads = []
    monkeypatch.setattr(data, "load_container", lambda *a: loads.append(a))
    out = tmp_path / "out"
    extra = ["--epochs", "1"] if command == "compress" else []
    code = _quiet([command, "--model", str(files[model]), "--dataset", str(files["dataset"]),
                   flag, str(files[value]), *extra, "--out", str(out)])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "ConfigError" and error["message"].startswith(f"{flag} ")
    assert str(files[model]) in error["message"]
    assert loads == [] and list(out.iterdir()) == []


def test_a_config_file_key_is_refused_the_same_way(files, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cost_table": str(files["good-table"])}))
    out = tmp_path / "out"
    code = _quiet(["eval", "--model", str(files["peot"]), "--dataset", str(files["dataset"]),
                   "--config", str(config), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "--cost-table does not apply" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "compress"])
def test_without_the_flags_the_stored_pipeline_is_read(files, command, tmp_path):
    extra = ["--epochs", "1"] if command == "compress" else []
    out = tmp_path / "out"
    assert _quiet([command, "--model", str(files["peot"]), "--dataset",
                   str(files["dataset"]), *extra, "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["feature_spec"] is None and resolved["cost_table"] is None


def test_a_model_without_a_stored_spec_takes_the_flags(files):
    doc, _ = cli._load_model_doc(files["peot"])
    resolved = {"model": "m.json", "feature_spec": None, "cost_table": None}
    cli._check_no_pipeline_flags(doc, resolved)
    matrix = dataclasses.replace(doc, pipeline=cli.Pipeline(None, None))
    cli._check_no_pipeline_flags(matrix, {**resolved, "cost_table": "t.json"})
