import numpy as np
import pytest

from peot.data import Dataset, Recording
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
