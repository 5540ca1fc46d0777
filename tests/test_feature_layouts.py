"""``extract_features`` on any channel layout of a spec.

The feature matrix equals a per-column reference, window by window, on
interleaved, duplicated and partial specs, on specs of one kind, at n = 0
and 1, and on windows that are not C-ordered.
"""

import numpy as np
import pytest

from peot.data import Recording
from peot.features import (
    BAND_POWER,
    LINE_LENGTH,
    VARIANCE,
    FeatureEntry,
    FeatureSpec,
    band_power,
    default_feature_spec,
    extract_features,
    line_length,
    variance,
)

FS = 256.0


def _recording(n=20, c=4, L=160, seed=0, order="C"):
    rng = np.random.default_rng(seed)
    windows = np.asarray(rng.standard_normal((n, c, L)) * 30 + 5, order=order)
    return Recording(windows=windows, fs=FS, labels=np.zeros(n, dtype=np.int64))


def _per_column(rec, spec):
    """Each column on its own, window by window, from the 1-D kernels."""
    out = np.empty((rec.n_windows, spec.n_features))
    for j, e in enumerate(spec.entries):
        for i in range(rec.n_windows):
            x = rec.windows[i, e.channel]
            out[i, j] = (band_power(x, rec.fs, *e.band) if e.kind == BAND_POWER
                         else line_length(x) if e.kind == LINE_LENGTH else variance(x))
    return out


def _spec(*entries):
    return FeatureSpec([FeatureEntry(ch, kind, *band) for ch, kind, *band in entries])


ALPHA = (8.0, 12.0)
SPECS = {
    "interleaved": _spec((2, VARIANCE), (0, LINE_LENGTH), (3, BAND_POWER, ALPHA),
                         (1, VARIANCE), (3, LINE_LENGTH), (0, VARIANCE),
                         (1, LINE_LENGTH)),
    "duplicated": _spec((1, LINE_LENGTH), (1, LINE_LENGTH), (0, VARIANCE),
                        (0, VARIANCE), (1, VARIANCE)),
    "partial-consecutive": _spec((1, LINE_LENGTH), (2, LINE_LENGTH),
                                 (2, VARIANCE), (3, VARIANCE)),
    "partial-descending": _spec((3, LINE_LENGTH), (1, LINE_LENGTH), (2, VARIANCE)),
    "line-length-only": _spec(*((ch, LINE_LENGTH) for ch in range(4))),
    "variance-only": _spec(*((ch, VARIANCE) for ch in (3, 2, 1, 0))),
    "one-column": _spec((2, VARIANCE)),
    "band-power-only": _spec((0, BAND_POWER, ALPHA), (2, BAND_POWER, ALPHA)),
    "default": default_feature_spec(4, FS),
}


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("n", [0, 1, 20])
def test_extract_features_equals_the_per_column_reference(name, n):
    rec = _recording(n=n)
    assert np.array_equal(extract_features(rec, SPECS[name]), _per_column(rec, SPECS[name]))


@pytest.mark.parametrize("name", ["interleaved", "partial-consecutive", "default"])
def test_non_contiguous_windows(name):
    for rec in (_recording(order="F"), _recording(L=300, seed=3)):
        if rec.windows.flags.c_contiguous:
            rec = Recording(rec.windows[:, :, ::2], fs=FS, labels=rec.labels)
        assert not rec.windows.flags.c_contiguous
        assert np.array_equal(extract_features(rec, SPECS[name]),
                              _per_column(rec, SPECS[name]))
