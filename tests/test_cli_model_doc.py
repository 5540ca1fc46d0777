"""A model document missing what ``peot train`` writes and ``compress`` or
``eval`` reads is a data error (exit 3) naming the key, not a traceback."""

import contextlib
import io
import json

import pytest

from peot.cli import EXIT_DATA, main

REMOVALS = [("core",), ("pipeline",), ("pipeline", "feature_spec"),
            ("pipeline", "cost_table"), ("train",), ("train", "dataset_fingerprint"),
            ("train", "config")]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--task", "seizure", "--n-windows", "120", "--seed", "2",
                     "--out", str(out)]) == 0
        assert main(["train", "--dataset", str(out / "dataset.json"), "--model", "peot",
                     "--epochs", "1", "--out", str(out)]) == 0
    return out / "dataset.json", json.loads((out / "model.json").read_text())


def _run(command, doc, dataset, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    extra = ["--epochs", "1"] if command == "compress" else []
    with contextlib.redirect_stdout(io.StringIO()):
        return main([command, "--model", str(path), "--dataset", str(dataset), *extra,
                     "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["compress", "eval"])
@pytest.mark.parametrize("key", REMOVALS, ids=".".join)
def test_a_missing_key_exits_data_and_names_it(trained, command, key, tmp_path, capsys):
    dataset, doc = trained
    doc = json.loads(json.dumps(doc))
    section = doc if len(key) == 1 else doc[key[0]]
    del section[key[-1]]
    assert _run(command, doc, dataset, tmp_path) == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "data" and error["type"] == "DataError"
    assert ".".join(key) in error["message"]
    out = tmp_path / "out"
    assert not (out / "model.json").exists() and not (out / "metrics.json").exists()


@pytest.mark.parametrize("command", ["compress", "eval"])
@pytest.mark.parametrize("section", ["core", "pipeline", "train"])
def test_a_section_that_is_not_an_object_exits_data(trained, command, section, tmp_path,
                                                    capsys):
    dataset, doc = trained
    doc = {**doc, section: []}
    assert _run(command, doc, dataset, tmp_path) == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "data" and section in error["message"]

