"""Input files that ``peot`` must refuse with exit code 3 (data), naming the
file: a feature matrix with non-finite values, a feature matrix of another
width than the model's, and malformed ``peot ingest`` inputs."""

import contextlib
import gzip
import io
import json
import struct

import numpy as np
import pytest

from peot.cli import EXIT_DATA, main
from peot.errors import DataError
from peot.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, Dataset, save_container
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


def _labels():
    return (np.arange(N) % 2).astype(np.int64)


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    """A clean 120 x 6 feature matrix, one all NaN and one 5 columns wide."""
    out = tmp_path_factory.mktemp("matrices")
    X = np.random.default_rng(5).normal(size=(N, WIDTH))
    X[:, 0] += _labels()
    save_container(Dataset(X=X, y=_labels()), out / "clean.json")
    save_container(Dataset(X=X[:, :5], y=_labels()), out / "narrow.json")
    # written without the Dataset class, which refuses the values
    nan = np.full((N, WIDTH), np.nan)
    doc = Dataset(X=X, y=_labels()).to_doc()
    doc["X"] = encode_array(nan)
    doc["fingerprint"] = fingerprint_arrays(nan, _labels())
    write_document(doc, out / "nan.json")
    return {name: out / f"{name}.json" for name in ("clean", "narrow", "nan")}


@pytest.fixture(scope="module")
def models(matrices, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    for kind in ("peot", "gbt"):
        assert _quiet(["train", "--dataset", str(matrices["clean"]), "--model", kind,
                       "--epochs", "2", "--n-trees", "2", "--seed", "1",
                       "--out", str(out / kind)]) == 0
    return {kind: out / kind / "model.json" for kind in ("peot", "gbt")}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_dataset_refuses_a_non_finite_feature_as_a_recording_does(value):
    X = np.zeros((4, 3))
    X[2, 1] = value
    with pytest.raises(DataError, match="non-finite"):
        Dataset(X=X, y=[0, 1, 0, 1])
    Dataset(X=np.zeros((4, 3), dtype=np.uint8), y=[0, 1, 0, 1])


@pytest.mark.parametrize("kind", ["peot", "gbt", "pegb"])
def test_train_on_a_non_finite_matrix_exits_data(matrices, kind, tmp_path, capsys):
    code = main(["train", "--dataset", str(matrices["nan"]), "--model", kind,
                 "--epochs", "1", "--n-trees", "1", "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert "non-finite" in _data_error(capsys, matrices["nan"])
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("kind", ["peot", "gbt"])
def test_eval_on_a_non_finite_matrix_exits_data(matrices, models, kind, tmp_path, capsys):
    code = main(["eval", "--model", str(models[kind]), "--dataset", str(matrices["nan"]),
                 "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert "non-finite" in _data_error(capsys, matrices["nan"])
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("command, kind", [("eval", "peot"), ("eval", "gbt"),
                                           ("compress", "peot")])
def test_a_matrix_of_another_width_exits_data(matrices, models, command, kind,
                                              tmp_path, capsys):
    code = main([command, "--model", str(models[kind]), "--dataset", str(matrices["narrow"]),
                 "--epochs", "1", "--out", str(tmp_path)] if command == "compress" else
                [command, "--model", str(models[kind]), "--dataset", str(matrices["narrow"]),
                 "--out", str(tmp_path)])
    assert code == EXIT_DATA
    message = _data_error(capsys, matrices["narrow"])
    assert "5 feature columns" in message and str(WIDTH) in message
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("command", ["eval", "compress"])
def test_a_matrix_of_the_model_width_still_runs(matrices, models, command, tmp_path):
    extra = ["--epochs", "1"] if command == "compress" else []
    assert _quiet([command, "--model", str(models["peot"]), "--dataset",
                   str(matrices["clean"]), "--out", str(tmp_path), *extra]) == 0


# ---------------------------------------------------------------------------
# malformed ingest inputs


def _idx(images_magic=IDX_IMAGES_MAGIC, images_cut=None, labels_cut=None):
    images = np.arange(3 * 2 * 2, dtype=np.uint8).reshape(3, 2, 2)
    image_bytes = struct.pack(">IIII", images_magic, 3, 2, 2) + images.tobytes()
    label_bytes = struct.pack(">II", IDX_LABELS_MAGIC, 3) + bytes([0, 1, 0])
    return image_bytes[:images_cut], label_bytes[:labels_cut]


def _corrupt_gzip(data):
    packed = gzip.compress(data)
    return packed[:10] + b"\xff" * 4 + packed[14:]  # an invalid first deflate block


def _signal(rows=300, edit=None):
    lines = ["time,ch0,ch1"] + [f"{i / 100:.2f},{np.sin(i):.6f},{np.cos(i):.6f}"
                                for i in range(rows)]
    if edit:
        row, text = edit
        lines[row] = text
    return "\n".join(lines) + "\n"


def _window_labels(windows=3):
    return "window_index,label\n" + "".join(f"{i},{i % 2}\n" for i in range(windows))


# case: (files written, the file the error must name, a fragment of the message)
INGEST_CASES = {
    "truncated IDX image header": (lambda: _idx(images_cut=10), "images", "truncated IDX header"),
    "truncated IDX label header": (lambda: _idx(labels_cut=6), "labels", "truncated IDX header"),
    "truncated IDX image payload": (lambda: _idx(images_cut=20), "images",
                                    "truncated IDX payload"),
    "truncated IDX label payload": (lambda: _idx(labels_cut=9), "labels",
                                    "truncated IDX payload"),
    "bad IDX image magic": (lambda: _idx(images_magic=IDX_LABELS_MAGIC), "images",
                            "bad IDX image magic"),
    "bad gzip stream": (lambda: (b"\x1f\x8b" + b"not a gzip member", _idx()[1]), "images",
                        "bad gzip stream"),
    "truncated gzip stream": (lambda: (gzip.compress(_idx()[0])[:-12], _idx()[1]), "images",
                              "bad gzip stream"),
    "corrupt gzip data": (lambda: (_corrupt_gzip(_idx()[0]), _idx()[1]), "images",
                          "bad gzip stream"),
    "CSV row with a field too many": (lambda: (_signal(edit=(5, "0.04,1.0,2.0,3.0")),
                                               _window_labels()), "signal", "expected 3 fields"),
    "CSV row with a field too few": (lambda: (_signal(edit=(5, "0.04,1.0")), _window_labels()),
                                     "signal", "expected 3 fields"),
    "non-numeric CSV value": (lambda: (_signal(edit=(5, "0.04,1.0,abc")), _window_labels()),
                              "signal", "line 6"),
    "time column that does not increase": (lambda: (_signal(edit=(5, "0.01,1.0,2.0")),
                                                    _window_labels()),
                                           "signal", "strictly increasing"),
    "missing window label": (lambda: (_signal(), _window_labels(windows=2)), "labels_csv",
                             "missing label for window 2"),
    "empty label CSV": (lambda: (_signal(), ""), "labels_csv", "empty label CSV"),
}


def _write_ingest_inputs(tmp_path, case):
    first, second = INGEST_CASES[case][0]()
    if isinstance(first, bytes):
        paths = {"images": tmp_path / "images.idx", "labels": tmp_path / "labels.idx"}
        paths["images"].write_bytes(first)
        paths["labels"].write_bytes(second)
        return ["--format", "idx", "--images", str(paths["images"]),
                "--labels", str(paths["labels"])], paths
    paths = {"signal": tmp_path / "signal.csv", "labels_csv": tmp_path / "labels.csv"}
    paths["signal"].write_text(first)
    paths["labels_csv"].write_text(second)
    return ["--format", "csv", "--signal", str(paths["signal"]),
            "--labels-csv", str(paths["labels_csv"]), "--window-len", "100"], paths


@pytest.mark.parametrize("case", INGEST_CASES)
def test_malformed_ingest_input_exits_data_and_names_the_file(case, tmp_path, capsys):
    args, paths = _write_ingest_inputs(tmp_path, case)
    code = main(["ingest", *args, "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    _, named, fragment = INGEST_CASES[case]
    assert fragment in _data_error(capsys, paths[named])
    assert not (tmp_path / "out" / "dataset.json").exists()


def test_the_well_formed_ingest_inputs_ingest(tmp_path):
    for fmt, files in (("idx", _idx()), ("csv", (_signal(), _window_labels()))):
        d = tmp_path / fmt
        d.mkdir()
        first, second = files
        if fmt == "idx":
            (d / "images.idx").write_bytes(first)
            (d / "labels.idx").write_bytes(second)
            args = ["--images", str(d / "images.idx"), "--labels", str(d / "labels.idx")]
        else:
            (d / "signal.csv").write_text(first)
            (d / "labels.csv").write_text(second)
            args = ["--signal", str(d / "signal.csv"), "--labels-csv", str(d / "labels.csv"),
                    "--window-len", "100"]
        assert _quiet(["ingest", "--format", fmt, *args, "--out", str(d / "out")]) == 0
