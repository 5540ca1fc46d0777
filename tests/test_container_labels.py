"""Containers take their labels through ``tree.class_labels``, the one label
rule, as a ``DataError``: a fraction, NaN, inf or a string is refused, not
truncated, and a bool or integral float reads as its integer."""

import json

import numpy as np
import pytest

from peot import tree as tree_mod
from peot.data import Dataset, Recording, load_container, save_container
from peot.errors import DataError, InvalidInputError


def _recording(labels):
    return Recording(np.zeros((len(labels), 1, 8)), fs=8.0, labels=labels)


def _dataset(labels):
    return Dataset(np.zeros((len(labels), 2)), y=labels)


BAD = {
    "fractions": ([0.5, 1.7], "labels must be integer class indices"),
    "one fraction": ([0.0, 2.2], "labels must be integer class indices"),
    "nan": ([0.0, float("nan")], "labels must be integer class indices"),
    "inf": ([float("inf"), 1.0], "labels must be integer class indices"),
    "strings": (["a", "b"], "labels must be integer class indices"),
    "numeric strings": (["1", "0"], "labels must be integer class indices"),
    "negative": ([0, -1], "labels must be >= 0, found -1"),
}


@pytest.mark.parametrize("make", [_recording, _dataset], ids=["recording", "dataset"])
@pytest.mark.parametrize("case", BAD)
def test_a_container_refuses_labels_that_are_no_class_indices(make, case):
    labels, message = BAD[case]
    with pytest.raises(DataError, match=f"^{message}$"):
        make(labels)


@pytest.mark.parametrize("make", [_recording, _dataset], ids=["recording", "dataset"])
def test_bools_and_integral_floats_read_as_integers(make):
    for labels in ([True, False, True], [1.0, 0.0, 2.0], np.array([1, 0, 2], np.int32)):
        got = make(labels)
        stored = got.labels if isinstance(got, Recording) else got.y
        assert stored.dtype == np.int64
        assert stored.tolist() == np.asarray(labels).astype(np.int64).tolist()


def test_int64_labels_are_kept_without_a_copy():
    labels = np.array([0, 1, 1], dtype=np.int64)
    assert _recording(labels).labels is labels
    assert _dataset(labels).y is labels


def test_a_stored_fractional_label_is_a_data_error_naming_the_file(tmp_path):
    save_container(_recording([0, 1]), tmp_path / "r.json")
    doc = json.loads((tmp_path / "r.json").read_text())
    # float64 [0.5, 1.0], while the field's disk dtype is int64
    doc["labels"] = {"dtype": "<f8", "shape": [2], "data": "AAAAAAAA4D8AAAAAAADwPw=="}
    (tmp_path / "r.json").write_text(json.dumps(doc))
    with pytest.raises(DataError, match=r"r\.json: labels: stored dtype '<f8'"):
        load_container(tmp_path / "r.json")


@pytest.mark.parametrize("labels", [["a", "b"], ["1", "2"], [None, 1], [{"a": 1}]])
def test_class_labels_refuses_strings_and_objects_as_invalid_input(labels):
    with pytest.raises(InvalidInputError, match="^labels must be integer class indices$"):
        tree_mod.class_labels(labels)
