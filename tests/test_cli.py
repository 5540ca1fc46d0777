import contextlib
import io
import json

import numpy as np
import pytest

from peot.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main


def test_diverging_train_exits_numeric(tmp_path, capsys):
    assert main(["synth", "--task", "seizure", "--n-windows", "200",
                 "--out", str(tmp_path / "data"), "--seed", "1"]) == 0
    capsys.readouterr()
    out = tmp_path / "train"
    code = main(["train", "--dataset", str(tmp_path / "data" / "dataset.json"), "--model", "peot",
                 "--lam", "0.1", "--learning-rate", "1e9", "--out", str(out),
                 "--seed", "1"])
    assert code == EXIT_NUMERIC
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "numeric"
    assert error["type"] == "NumericError"
    assert not (out / "model.json").exists()


@pytest.fixture(scope="module")
def seizure_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--task", "seizure", "--n-windows", "200",
                     "--out", str(out), "--seed", "1"]) == 0
    return out / "dataset.json"


@pytest.mark.parametrize("holdout", ["1.5", "1", "-0.5", "nan"])
def test_holdout_outside_unit_interval_exits_config(seizure_dataset, holdout,
                                                    tmp_path, capsys):
    code = main(["train", "--dataset", str(seizure_dataset), "--model", "peot",
                 "--epochs", "1", f"--holdout={holdout}", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and "holdout" in error["message"]
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("holdout", ["0", "0.25"])
def test_holdout_in_unit_interval_trains(seizure_dataset, holdout, tmp_path, capsys):
    code = main(["train", "--dataset", str(seizure_dataset), "--model", "peot",
                 "--epochs", "1", f"--holdout={holdout}", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    assert len(doc["train"]["test_indices"]) == round(200 * float(holdout))


@pytest.fixture(scope="module")
def peot_model(seizure_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--dataset", str(seizure_dataset), "--model", "peot",
                     "--epochs", "1", "--out", str(out)]) == 0
    return out / "model.json"


@pytest.mark.parametrize("command, key, value", [
    ("train", "holdout", "abc"),
    ("train", "epochs", "x"),
    ("synth", "n_windows", "x"),
    ("report", "k", "x"),
    ("compress", "sparsity", "x"),
])
def test_unreadable_config_value_exits_config(seizure_dataset, peot_model, command,
                                              key, value, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    inputs = {
        "train": ["--dataset", str(seizure_dataset)],
        "synth": ["--task", "seizure"],
        "report": ["--dataset", str(seizure_dataset)],
        "compress": ["--model", str(peot_model), "--dataset", str(seizure_dataset)],
    }[command]
    code = main([command, *inputs, "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and key in error["message"]


def test_eval_on_altered_fingerprint_exits_data(seizure_dataset, tmp_path, capsys):
    assert main(["train", "--dataset", str(seizure_dataset), "--model", "gbt",
                 "--n-trees", "2", "--out", str(tmp_path / "train")]) == 0
    doc = json.loads(seizure_dataset.read_text())
    doc["fingerprint"] = "0" * len(doc["fingerprint"])
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["eval", "--model", str(tmp_path / "train" / "model.json"),
                 "--dataset", str(altered), "--out", str(tmp_path / "eval")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "data" and "fingerprint" in error["message"]
    assert not (tmp_path / "eval" / "metrics.json").exists()


@pytest.fixture(scope="module")
def finger_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("finger")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--task", "finger", "--n-windows", "200",
                     "--out", str(out), "--seed", "1"]) == 0
    return out / "dataset.json"


@pytest.mark.parametrize("model", ["peot", "gbt"])
def test_eval_on_dataset_with_more_classes_exits_data(seizure_dataset, finger_dataset,
                                                      model, tmp_path, capsys):
    assert main(["train", "--dataset", str(seizure_dataset), "--model", model,
                 "--epochs", "1", "--n-trees", "2", "--out", str(tmp_path / "train")]) == 0
    capsys.readouterr()
    code = main(["eval", "--model", str(tmp_path / "train" / "model.json"),
                 "--dataset", str(finger_dataset), "--out", str(tmp_path / "eval")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError"
    assert "5 classes" in error["message"] and "2" in error["message"]
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_ingest_with_a_negative_label_exits_data(tmp_path, capsys):
    rng = np.random.default_rng(0)
    window_len, n_windows = 128, 8
    signal = tmp_path / "signal.csv"
    with open(signal, "w") as fh:
        fh.write("time,ch0,ch1\n")
        for t, row in enumerate(rng.normal(size=(window_len * n_windows, 2))):
            fh.write(f"{t / 128.0},{row[0]},{row[1]}\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("window_index,label\n"
                      + "".join(f"{i},{i % 4 - 1}\n" for i in range(n_windows)))
    code = main(["ingest", "--format", "csv", "--signal", str(signal),
                 "--labels-csv", str(labels), "--window-len", str(window_len),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError" and "-1" in error["message"]
    assert not (tmp_path / "out" / "dataset.json").exists()
