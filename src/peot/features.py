"""Per-window signal features and their extraction power cost.

Three feature kinds are supported: line-length (mean absolute first
difference, the cheapest), population variance, and band power (mean
squared output of a band-pass FIR filter, the most expensive because of
the filtering stage).  Relative extraction costs come from a user-editable
cost table normalized so line-length costs 1.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import serialize
from .data import Recording
from .errors import ConfigError, InvalidInputError

LINE_LENGTH = "line_length"
VARIANCE = "variance"
BAND_POWER = "band_power"
FEATURE_KINDS = (LINE_LENGTH, VARIANCE, BAND_POWER)

# windowed-sinc design, Hamming window; order 64 => 65 taps
FIR_ORDER = 64

# a band-power block in extract_features squares no more outputs than the
# widest band over this many windows: bounds the temporary arrays, so
# featurising a whole recording does not raise peak memory
_BLOCK_WINDOWS = 32

# Relative per-feature extraction cost.  Only the ordering (line-length
# cheapest, band power dominated by its FIR stage) is physically grounded;
# absolute ratios are a documented, configurable default.
DEFAULT_COST_TABLE = {LINE_LENGTH: 1.0, VARIANCE: 3.0, BAND_POWER: 25.0}

DEFAULT_BANDS = (
    (1.0, 4.0),
    (4.0, 8.0),
    (8.0, 12.0),
    (12.0, 30.0),
    (30.0, 60.0),
    (60.0, 100.0),
)


def _read_only(values) -> np.ndarray:
    a = np.array(values, dtype=np.intp)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FeatureEntry(serialize.Stored):
    """One column of the global feature space: a feature of one channel."""

    channel: int
    kind: str
    band: tuple[float, float] | None = serialize.omitted_when_none()

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise InvalidInputError(f"unknown feature kind {self.kind!r}")
        if self.kind == BAND_POWER:
            if self.band is None or len(self.band) != 2:
                raise InvalidInputError("band_power entries need a (lo, hi) band")
            object.__setattr__(self, "band", (float(self.band[0]), float(self.band[1])))
        elif self.band is not None:
            raise InvalidInputError(f"{self.kind} takes no band parameter")
        if self.channel < 0:
            raise InvalidInputError("channel index must be >= 0")


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered feature entries; the order defines the global feature index.

    The spec is immutable: ``entries`` is stored as a tuple, whatever
    sequence it was built from, and cannot be reassigned.  That lets the
    spec group its columns by kernel once (``_groups``) and summarise what
    ``validate_for`` checks once (``_limits``), for every
    ``extract_features`` call that uses it.
    """

    entries: tuple[FeatureEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def n_features(self) -> int:
        return len(self.entries)

    def validate_for(self, n_channels: int, fs: float) -> None:
        top_channel, bands_ordered, top_hi = self._limits
        if top_channel < n_channels and bands_ordered and top_hi < fs / 2.0:
            return
        # name the first offending entry; a band by the filter design's own check
        for entry in self.entries:
            if entry.channel >= n_channels:
                raise InvalidInputError(
                    f"feature entry addresses channel {entry.channel}, "
                    f"recording has {n_channels}"
                )
            if entry.kind == BAND_POWER:
                design_bandpass(*entry.band, fs)

    @functools.cached_property
    def _limits(self) -> tuple[int, bool, float]:
        """``(largest channel, every band has 0 < lo < hi, largest hi)``.

        A recording fits the spec iff it has more channels than the first,
        the second holds and its fs/2 exceeds the third."""
        bands = [e.band for e in self.entries if e.kind == BAND_POWER]
        return (max((e.channel for e in self.entries), default=-1),
                all(0.0 < lo < hi for lo, hi in bands),
                max((hi for _, hi in bands), default=-np.inf))

    @functools.cached_property
    def _groups(self) -> tuple:
        """The columns grouped by kernel, computed on first use.

        Returns ``(scalar, channels, bands, columns, per_block)``:

        * ``scalar``: ``(column, channel, kind)`` for every line-length and
          variance entry, in column order;
        * ``channels``: every band-power channel once, band by band;
        * ``bands``: ``(band, rows)`` per band, in order of first use, where
          ``rows`` are the band's channels as positions in ``channels``, or
          None when they are ``channels`` itself, which the kernel then
          reads as it is, without an indexing copy or view;
        * ``columns``: the band-power columns, band by band;
        * ``per_block``: windows per band-power block, so that the squared
          outputs of all bands take no more room than those of the widest
          band over ``_BLOCK_WINDOWS`` windows.

        The index arrays are read-only.
        """
        scalar, by_band = [], {}
        for j, e in enumerate(self.entries):
            if e.kind == BAND_POWER:
                by_band.setdefault(e.band, []).append(j)
            else:
                scalar.append((j, e.channel, e.kind))
        channels = list(dict.fromkeys(self.entries[j].channel
                                      for cols in by_band.values() for j in cols))
        bands = []
        for band, cols in by_band.items():
            rows = [channels.index(self.entries[j].channel) for j in cols]
            bands.append((band, None if rows == list(range(len(channels)))
                          else _read_only(rows)))
        columns = [j for cols in by_band.values() for j in cols]
        widest = max(map(len, by_band.values()), default=0)
        per_block = max(1, _BLOCK_WINDOWS * widest // max(len(columns), 1))
        return (tuple(scalar), _read_only(channels), tuple(bands),
                _read_only(columns), per_block)

    def to_doc(self) -> list[dict]:
        return [e.to_doc() for e in self.entries]

    @classmethod
    def from_doc(cls, doc, path="<doc>", key="") -> "FeatureSpec":
        return cls(serialize.decode(list[FeatureEntry], doc, path, key))


def default_feature_spec(n_channels: int, fs: float) -> FeatureSpec:
    """Line-length, variance, and one band-power per band of ``DEFAULT_BANDS``
    below fs/2, for each channel."""
    entries = []
    for ch in range(n_channels):
        entries.append(FeatureEntry(ch, LINE_LENGTH))
        entries.append(FeatureEntry(ch, VARIANCE))
        for lo, hi in DEFAULT_BANDS:
            if hi < fs / 2.0:
                entries.append(FeatureEntry(ch, BAND_POWER, (lo, hi)))
    return FeatureSpec(entries=entries)


# ---------------------------------------------------------------------------
# feature kernels


def line_length(samples) -> float:
    """Mean absolute first difference, (1/d) * sum |x[n] - x[n-1]|.

    It runs the steps of ``np.sum(np.abs(np.diff(x))) / x.size`` without
    their Python wrappers, so the value is bit-identical to that expression.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise InvalidInputError("line_length needs a 1-D window of >= 2 samples")
    return float(np.abs(x[1:] - x[:-1]).sum() / x.size)


def variance(samples) -> float:
    """Population variance of the window.

    It runs ``np.var``'s own steps (sum, divide, subtract, square, sum,
    divide) without its Python wrappers, so the value is bit-identical to
    ``np.var(x)``.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise InvalidInputError("variance needs a 1-D window of >= 2 samples")
    d = x - x.sum() / x.size
    return float((d * d).sum() / x.size)


@functools.lru_cache
def design_bandpass(lo: float, hi: float, fs: float) -> np.ndarray:
    """Windowed-sinc band-pass taps (difference of sincs, Hamming window).

    The impulse response is symmetric (linear phase), length ``FIR_ORDER + 1``.
    Taps are designed once per argument tuple and cached; the returned
    array is shared between callers and read-only.
    """
    if not 0.0 < lo < hi < fs / 2.0:
        raise InvalidInputError(
            f"band ({lo}, {hi}) must satisfy 0 < lo < hi < fs/2 = {fs / 2}"
        )
    n = np.arange(FIR_ORDER + 1) - FIR_ORDER / 2.0

    def lowpass(fc):
        r = 2.0 * fc / fs
        return r * np.sinc(r * n)

    taps = (lowpass(hi) - lowpass(lo)) * np.hamming(FIR_ORDER + 1)
    taps.flags.writeable = False
    return taps


def _check_band_power_length(size: int) -> None:
    if size < FIR_ORDER + 1:
        raise InvalidInputError(
            f"band_power needs at least {FIR_ORDER + 1} samples, got {size}"
        )


def _band_powers(block: np.ndarray, bands) -> np.ndarray:
    """Band powers of an (m, c, L) block of windows, m >= 1.

    ``bands`` holds ``(taps, rows)`` per band, all taps of one length with
    L >= len(taps): the band's taps and its channels as positions in the
    block, or None for every channel in order.  Returns an (m, k) array,
    the bands' channels side by side in the order given.

    Each band runs one full-overlap ("valid") convolution over its rows
    laid end to end.  Each kept output is the same full-overlap dot product
    a per-row convolution computes: row r's kept outputs start at output
    ``r * L``.  The outputs in between mix two rows; they stand where the
    ``FIR_ORDER`` warm-up samples of the later row would, and are dropped.  The
    kept outputs of every band are squared into one buffer, and its means
    run ``np.mean``'s own sum and divide, so each is bit-identical to it.
    """
    m, _, size = block.shape
    width = size - (bands[0][0].size - 1)
    parts = [block if rows is None else block[:, rows, :] for _, rows in bands]
    squares = np.empty((m, sum(x.shape[1] for x in parts), width))
    col = 0
    for (taps, _), x in zip(bands, parts):
        k = x.shape[1]
        y = np.convolve(x.ravel(), taps, "valid")
        s = y.itemsize
        y = np.ndarray((m, k, width), y.dtype, y, 0, (k * size * s, size * s, s))
        np.multiply(y, y, out=squares[:, col:col + k])
        col += k
    return squares.sum(axis=2) / width


def band_power(samples, fs: float, lo: float, hi: float) -> float:
    """Mean squared band-pass filter output, warm-up samples discarded.

    The first ``FIR_ORDER`` filter outputs depend on the implicit zero history
    and are dropped rather than zero-padded, so short windows are not
    biased by the edge transient.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInputError("band_power needs a 1-D window")
    _check_band_power_length(x.size)
    taps = design_bandpass(lo, hi, fs)
    return float(_band_powers(x[None, None, :], [(taps, None)])[0, 0])


def extract_features(recording: Recording, spec: FeatureSpec) -> np.ndarray:
    """Feature matrix: one row per window, one column per spec entry.

    Line length and variance call their kernel once per window and column.
    Band power runs over blocks of windows: each block gathers the
    band-power channels once and runs every band on them; every value
    equals what ``band_power`` gives for that window.  The grouping of the
    columns by kernel is the spec's, computed once per spec.
    """
    spec.validate_for(recording.n_channels, recording.fs)
    windows = recording.windows
    n, _, size = windows.shape
    out = np.empty((n, spec.n_features), dtype=np.float64)
    scalar, channels, bands, columns, per_block = spec._groups
    for j, ch, kind in scalar:
        kernel = line_length if kind == LINE_LENGTH else variance
        channel = windows[:, ch, :]
        for i in range(n):
            out[i, j] = kernel(channel[i])
    if not bands or not n:
        return out
    _check_band_power_length(size)
    taps = [(design_bandpass(*band, recording.fs), rows) for band, rows in bands]
    for start in range(0, n, per_block):
        block = windows[start:start + per_block, channels, :]
        out[start:start + block.shape[0], columns] = _band_powers(block, taps)
    return out


def feature_cost_vector(spec: FeatureSpec, table: dict) -> np.ndarray:
    """Per-feature-column extraction cost, priced from the cost table."""
    validate_cost_table(table)
    unpriced = [e.kind for e in spec.entries if e.kind not in table]
    if unpriced:
        raise ConfigError(f"cost table does not price kind {unpriced[0]!r}")
    return np.array([table[e.kind] for e in spec.entries], dtype=np.float64)


def validate_cost_table(table: dict) -> None:
    """A ``ConfigError`` unless ``table`` prices known kinds at finite numbers > 0."""
    if not isinstance(table, dict) or not table:
        raise ConfigError("cost table must be a non-empty mapping")
    for kind, cost in table.items():
        if kind not in FEATURE_KINDS:
            raise ConfigError(f"cost table prices unknown kind {kind!r}")
        if isinstance(cost, bool) or not isinstance(cost, (int, float)) \
                or not 0 < cost < np.inf:
            raise ConfigError(f"cost for {kind!r} must be a finite number > 0, got {cost!r}")
