import gzip
import struct

import numpy as np
import pytest

from peot.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    Dataset,
    Recording,
    ingest_idx,
    read_signal_csv,
)
from peot.errors import DataError


def test_recording_rejects_a_negative_label():
    windows = np.zeros((3, 2, 8))
    with pytest.raises(DataError, match="-1"):
        Recording(windows=windows, fs=128.0, labels=[0, -1, 2])
    assert Recording(windows=windows, fs=128.0, labels=[0, 1, 2]).labels.tolist() == [0, 1, 2]


def test_dataset_rejects_a_negative_label():
    X = np.zeros((3, 4))
    with pytest.raises(DataError, match="-2"):
        Dataset(X=X, y=[-2, 0, 1])
    assert Dataset(X=X, y=[0, 0, 1]).n_classes == 2


@pytest.mark.parametrize("compress", [False, True])
def test_ingest_idx_returns_the_exact_rows_and_labels(tmp_path, compress):
    images = np.array([[[0, 255], [7, 128]],
                       [[1, 2], [3, 4]],
                       [[200, 100], [50, 25]]], dtype=np.uint8)
    labels = np.array([9, 0, 3], dtype=np.uint8)
    files = {"images": struct.pack(">IIII", IDX_IMAGES_MAGIC, 3, 2, 2) + images.tobytes(),
             "labels": struct.pack(">II", IDX_LABELS_MAGIC, 3) + labels.tobytes()}
    for name, raw in files.items():
        (tmp_path / name).write_bytes(gzip.compress(raw) if compress else raw)
    ds = ingest_idx(tmp_path / "images", tmp_path / "labels")
    assert ds.X.dtype == np.uint8
    assert np.array_equal(ds.X, images.reshape(3, 4))
    assert ds.y.dtype == np.int64 and ds.y.tolist() == [9, 0, 3]


def _write_signal_csv(path, times):
    rng = np.random.default_rng(3)
    with open(path, "w") as fh:
        fh.write("time,ch0,ch1\n")
        for t, row in zip(times, rng.normal(size=(len(times), 2))):
            fh.write(f"{t},{row[0]},{row[1]}\n")


@pytest.mark.parametrize("row, stamp", [(700, "nan"), (1999, "inf"), (0, "-inf")])
def test_read_signal_csv_rejects_a_non_finite_time_stamp(tmp_path, row, stamp):
    times = [f"{t / 128.0}" for t in range(2000)]
    times[row] = stamp
    _write_signal_csv(tmp_path / "signal.csv", times)
    # the header is line 1, so sample row r is on line r + 2
    with pytest.raises(DataError, match=f"line {row + 2}: time stamp '{stamp}' is not finite"):
        read_signal_csv(tmp_path / "signal.csv")


def test_read_signal_csv_reads_finite_time_stamps(tmp_path):
    _write_signal_csv(tmp_path / "signal.csv", [f"{t / 128.0}" for t in range(2000)])
    samples, fs = read_signal_csv(tmp_path / "signal.csv")
    assert samples.shape == (2000, 2) and fs == 128.0
