"""Datasets ``peot`` must refuse with exit code 3 (data), naming the file: a
container without rows, and a feature matrix whose values are neither bool,
int nor float.  A container without rows stays constructible, and bool and
uint8 matrices stay accepted with their bytes."""

import contextlib
import io
import json

import numpy as np
import pytest

from peot.cli import EXIT_DATA, main
from peot.data import Dataset, Recording, load_container, save_container
from peot.errors import DataError
from peot.serialize import encode_array, fingerprint_arrays, write_document

N, WIDTH = 120, 6


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _data_error(capsys, path):
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "data" and error["type"] == "DataError"
    assert str(path) in error["message"]
    return error["message"]


def _labels(n=N):
    return (np.arange(n) % 2).astype(np.int64)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A clean matrix, a peot model trained on it, and both containers empty."""
    out = tmp_path_factory.mktemp("rows")
    X = np.random.default_rng(5).normal(size=(N, WIDTH))
    X[:, 0] += _labels()
    save_container(Dataset(X=X, y=_labels()), out / "clean.json")
    save_container(Dataset(X=np.zeros((0, WIDTH)), y=_labels(0)), out / "empty-matrix.json")
    save_container(Recording(windows=np.zeros((0, 2, 64)), fs=256.0, labels=_labels(0)),
                   out / "empty-recording.json")
    assert _quiet(["train", "--dataset", str(out / "clean.json"), "--epochs", "2",
                   "--seed", "1", "--out", str(out / "model")]) == 0
    return out


COMMANDS = {
    "train": ["train", "--epochs", "1"],
    "report": ["report", "--k", "2"],
    "sweep": ["sweep", "--k", "2", "--epochs", "1", "--lambdas", "0", "--depths", "2"],
    "compress": ["compress", "--epochs", "1"],
    "eval": ["eval"],
}


@pytest.mark.parametrize("container", ["empty-matrix", "empty-recording"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_dataset_without_rows_exits_data(files, container, command, tmp_path, capsys):
    path = files / f"{container}.json"
    argv = COMMANDS[command] + ["--dataset", str(path), "--out", str(tmp_path)]
    if command in ("compress", "eval"):
        argv += ["--model", str(files / "model" / "model.json")]
    assert main(argv) == EXIT_DATA
    assert "no rows" in _data_error(capsys, path)


def test_containers_without_rows_stay_constructible():
    assert Recording(windows=np.zeros((0, 2, 64)), fs=256.0, labels=_labels(0)).n_windows == 0
    assert Dataset(X=np.zeros((0, 3)), y=_labels(0)).X.shape == (0, 3)


BAD_X = {
    "words": np.full((N, WIDTH), "abc"),
    "numeric strings": np.full((N, WIDTH), "1.5"),
    "complex": np.full((N, WIDTH), 1.5 + 2j),
}


@pytest.mark.parametrize("kind", BAD_X)
def test_a_matrix_of_other_values_is_refused(kind):
    with pytest.raises(DataError, match="X must hold bool, int or float"):
        Dataset(X=BAD_X[kind], y=_labels())


@pytest.mark.parametrize("kind", BAD_X)
def test_train_on_a_matrix_of_other_values_exits_data(kind, tmp_path, capsys):
    # written without the Dataset class, which refuses the values
    doc = Dataset(X=np.zeros((N, WIDTH)), y=_labels()).to_doc()
    doc["X"] = encode_array(BAD_X[kind])
    doc["fingerprint"] = fingerprint_arrays(BAD_X[kind], _labels())
    path = tmp_path / "dataset.json"
    write_document(doc, path)
    code = main(["train", "--dataset", str(path), "--epochs", "1",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "X must hold" in _data_error(capsys, path)
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int32, np.float32])
def test_bool_int_and_float_matrices_keep_their_bytes(dtype, tmp_path):
    X = (np.random.default_rng(2).integers(0, 2, size=(N, WIDTH)) * _labels()[:, None]
         ).astype(dtype)
    save_container(Dataset(X=X, y=_labels()), tmp_path / "dataset.json")
    back = load_container(tmp_path / "dataset.json")
    assert back.X.dtype == X.dtype and back.X.tobytes() == X.tobytes()
    assert _quiet(["train", "--dataset", str(tmp_path / "dataset.json"), "--model", "gbt",
                   "--n-trees", "1", "--out", str(tmp_path / "out")]) == 0
