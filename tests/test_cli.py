import contextlib
import io
import json
import struct

import numpy as np
import pytest

from peot.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from peot.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, load_container
from peot.serialize import decode_array, encode_array


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


@pytest.mark.parametrize("depths", ["2.7", "3,2.0", "3,x"])
def test_sweep_with_a_non_integer_depth_exits_config(seizure_dataset, depths,
                                                     tmp_path, capsys):
    code = main(["sweep", "--dataset", str(seizure_dataset), f"--depths={depths}",
                 "--lambdas", "0", "--epochs", "1", "--warmup-epochs", "0",
                 "--k", "2", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "ConfigError"
    assert repr(depths.split(",")[-1]) in error["message"]
    assert not (tmp_path / "sweep.csv").exists()


def test_csv_ingest_of_windows_too_short_for_band_power_exits_config(tmp_path, capsys):
    # the files do not exist: the check runs before anything is read
    code = main(["ingest", "--format", "csv", "--signal", str(tmp_path / "signal.csv"),
                 "--labels-csv", str(tmp_path / "labels.csv"), "--window-len", "64",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "ConfigError" and "65" in error["message"]
    assert not (tmp_path / "out" / "dataset.json").exists()



@pytest.mark.parametrize("row, stamp", [(700, "nan"), (1999, "inf"), (0, "-inf")])
def test_csv_ingest_of_a_non_finite_time_stamp_exits_data(tmp_path, capsys, row, stamp):
    rng = np.random.default_rng(0)
    signal = tmp_path / "signal.csv"
    with open(signal, "w") as fh:
        fh.write("time,ch0,ch1\n")
        for t, sample in enumerate(rng.normal(size=(2000, 2))):
            fh.write(f"{stamp if t == row else t / 128.0},{sample[0]},{sample[1]}\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("window_index,label\n" + "".join(f"{i},{i % 2}\n" for i in range(15)))
    code = main(["ingest", "--format", "csv", "--signal", str(signal),
                 "--labels-csv", str(labels), "--window-len", "128",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError"
    assert f"line {row + 2}" in error["message"] and "not finite" in error["message"]
    assert not (tmp_path / "out" / "dataset.json").exists()

def write_idx(tmp_path, images, labels):
    n, rows, cols = images.shape
    image_path, label_path = tmp_path / "images.idx", tmp_path / "labels.idx"
    image_path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols) + images.tobytes())
    label_path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, n) + labels.tobytes())
    return image_path, label_path


def test_idx_ingest_writes_the_images_and_labels(tmp_path, capsys):
    images = np.arange(3 * 2 * 4, dtype=np.uint8).reshape(3, 2, 4) * 10
    image_path, label_path = write_idx(tmp_path, images, np.array([2, 0, 1], dtype=np.uint8))
    assert main(["ingest", "--format", "idx", "--images", str(image_path),
                 "--labels", str(label_path), "--out", str(tmp_path / "out")]) == 0
    ds = load_container(tmp_path / "out" / "dataset.json")
    assert np.array_equal(ds.X, images.reshape(3, 8))
    assert ds.y.tolist() == [2, 0, 1]


def test_idx_ingest_of_a_truncated_header_exits_data(tmp_path, capsys):
    images = np.zeros((3, 2, 4), dtype=np.uint8)
    image_path, label_path = write_idx(tmp_path, images, np.zeros(3, dtype=np.uint8))
    image_path.write_bytes(image_path.read_bytes()[:10])
    code = main(["ingest", "--format", "idx", "--images", str(image_path),
                 "--labels", str(label_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError" and "truncated IDX header" in error["message"]
    assert not (tmp_path / "out" / "dataset.json").exists()


@pytest.fixture(scope="module")
def compressed_model(seizure_dataset, peot_model, tmp_path_factory):
    out = tmp_path_factory.mktemp("compress")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compress", "--model", str(peot_model), "--dataset", str(seizure_dataset),
                     "--epochs", "1", "--out", str(out)]) == 0
    return out / "model.json"


def _prune_everything(core):
    pruned = decode_array(core["compression"]["pruned"])
    core["compression"]["pruned"] = encode_array(np.ones_like(pruned))


def _flatten_mask(core):
    pruned = decode_array(core["compression"]["pruned"])
    core["compression"]["pruned"] = encode_array(pruned.reshape(-1))


def _edit_assignments(edit):
    def apply(core):
        codebook = core["compression"]["codebook"]
        k = decode_array(codebook["centroids"]).size
        codebook["assignments"] = encode_array(edit(decode_array(codebook["assignments"]), k))
    return apply


def _move_a_survivor(core):
    W1 = decode_array(core["W1"])
    survivor = np.flatnonzero(~decode_array(core["compression"]["pruned"]).astype(bool))[0]
    W1.reshape(-1)[survivor] += 1.0
    core["W1"] = encode_array(W1)


@pytest.mark.parametrize("edit, message", [
    (_prune_everything, "pruned W1 entries are nonzero"),
    (_flatten_mask, "compression mask has shape"),
    (_edit_assignments(lambda a, k: a[:-1]), "survivors"),
    (_edit_assignments(lambda a, k: np.where(np.arange(a.size) == 0, k, a)), "integers in [0,"),
    (_edit_assignments(lambda a, k: np.where(np.arange(a.size) == 0, -1, a)), "integers in [0,"),
    (_move_a_survivor, "differ from their codebook centroid"),
])
def test_eval_of_a_contradictory_compression_state_exits_data(seizure_dataset, compressed_model,
                                                              edit, message, tmp_path, capsys):
    doc = json.loads(compressed_model.read_text())
    edit(doc["core"])
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(doc))
    code = main(["eval", "--model", str(edited), "--dataset", str(seizure_dataset),
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError" and message in error["message"]
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_eval_of_an_unedited_compressed_model_exits_0(seizure_dataset, compressed_model,
                                                      tmp_path, capsys):
    assert main(["eval", "--model", str(compressed_model), "--dataset", str(seizure_dataset),
                 "--out", str(tmp_path / "eval")]) == 0


@pytest.mark.parametrize("command, args, key", [
    ("train", ["--model", "peot", "--epochs", "1", "--lam", "nan"], "lam"),
    ("train", ["--model", "pegb", "--n-trees", "1", "--cost-lambda", "nan"], "regularization"),
    ("compress", ["--epochs", "1", "--lam", "nan"], "lam"),
])
def test_nan_penalty_weight_exits_config(seizure_dataset, peot_model, command, args, key,
                                         tmp_path, capsys):
    inputs = ["--model", str(peot_model)] if command == "compress" else []
    code = main([command, *inputs, "--dataset", str(seizure_dataset), *args,
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and key in error["message"]
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "resolved_config.json").exists()


def test_nan_lam_in_a_config_file_exits_config(seizure_dataset, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"lam": NaN, "epochs": 1}')
    code = main(["train", "--dataset", str(seizure_dataset), "--model", "peot",
                 "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and "lam" in error["message"]
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("command, args, key", [
    ("train", ["--model", "peot", "--epochs", "1", "--lam", "inf"], "lam"),
    ("train", ["--model", "peot", "--epochs", "1", "--learning-rate", "inf"], "learning rate"),
    ("train", ["--model", "pegb", "--n-trees", "1", "--cost-lambda", "inf"], "regularization"),
    ("compress", ["--epochs", "1", "--lam", "inf"], "lam"),
])
def test_infinite_weight_exits_config(seizure_dataset, peot_model, command, args, key,
                                      tmp_path, capsys):
    inputs = ["--model", str(peot_model)] if command == "compress" else []
    code = main([command, *inputs, "--dataset", str(seizure_dataset), *args,
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and key in error["message"]
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "resolved_config.json").exists()


def test_top_level_help_recommends_one_blas_thread(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "OPENBLAS_NUM_THREADS=1" in capsys.readouterr().out
