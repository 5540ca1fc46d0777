"""Dataset containers and file ingestion (IDX images, CSV recordings).

Two container kinds exist: a ``Recording`` of labeled multi-channel signal
windows, and a flat feature-matrix ``Dataset``, stored through the
``serialize`` codec.  Both take their labels through ``tree.class_labels``,
the one label rule, as a ``DataError``.  A container file adds a content
fingerprint so downstream folds and reports can assert they ran on
identical data; the fingerprint hashes the arrays, not the file.  A
container with an array of 4 MiB or more (the windows of an 800-window
seizure recording) is a version-2 file, that array's raw bytes after the
JSON line; any other is a version-1 file, one JSON line with base64 arrays.
"""

import csv
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .errors import DataError, InvalidInputError
from .tree import class_labels

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _labels(labels) -> np.ndarray:
    """``tree.class_labels`` of a container's labels; a bad one is bad data."""
    try:
        return class_labels(labels)
    except InvalidInputError as exc:
        raise DataError(str(exc)) from exc


@dataclass
class Recording(serialize.Stored, kind="recording"):
    """Labeled signal windows: ``windows[i]`` is (n_channels, window_len)."""

    windows: np.ndarray = serialize.array_field(np.float64)  # (n_windows, n_channels, len)
    fs: float
    labels: np.ndarray = serialize.array_field(np.int64)  # (n_windows,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = _labels(self.labels)
        if self.windows.ndim != 3:
            raise InvalidInputError("windows must be (n_windows, n_channels, len)")
        if self.windows.shape[0] != self.labels.shape[0]:
            raise InvalidInputError("one label per window required")
        if self.windows.shape[2] < 2:
            raise InvalidInputError("windows must hold at least 2 samples")
        if not self.fs > 0:
            raise InvalidInputError("sampling rate must be positive")
        if not np.isfinite(self.windows).all():
            raise DataError("recording contains non-finite samples")

    @property
    def n_windows(self) -> int:
        return self.windows.shape[0]

    @property
    def n_channels(self) -> int:
        return self.windows.shape[1]

    def fingerprint(self) -> str:
        return serialize.fingerprint_arrays(
            self.windows, self.labels, np.float64([self.fs])
        )


@dataclass
class Dataset(serialize.Stored, kind="dataset"):
    """Flat feature matrix with integer class labels."""

    X: np.ndarray = serialize.array_field()  # (n_samples, n_features), bool, int or float
    y: np.ndarray = serialize.array_field(np.int64)  # (n_samples,)
    feature_names: list[str] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X)
        self.y = _labels(self.y)
        if self.X.ndim != 2:
            raise InvalidInputError("X must be 2-D")
        if self.X.dtype.kind not in "biuf":
            raise DataError(f"X must hold bool, int or float values, not {self.X.dtype}")
        if self.X.shape[0] != self.y.shape[0]:
            raise InvalidInputError("one label per row required")
        if self.feature_names is not None and len(self.feature_names) != self.X.shape[1]:
            raise InvalidInputError("feature_names length must match X columns")
        if np.issubdtype(self.X.dtype, np.inexact) and not np.isfinite(self.X).all():
            raise DataError("dataset contains non-finite feature values")

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if self.y.size else 0

    def fingerprint(self) -> str:
        return serialize.fingerprint_arrays(np.ascontiguousarray(self.X), self.y)


# ---------------------------------------------------------------------------
# container files


CONTAINERS = {cls.KIND: cls for cls in (Recording, Dataset)}


def save_container(obj, path) -> None:
    if not isinstance(obj, (Recording, Dataset)):
        raise InvalidInputError(f"cannot serialize {type(obj).__name__}")
    doc = serialize.encode(obj, raw=True)  # a large array is written raw
    doc["fingerprint"] = obj.fingerprint()
    serialize.write_document(doc, path)


def load_container(path):
    doc = serialize.read_document(path)
    container = serialize.decode_kind(doc, CONTAINERS, path)
    if doc.get("fingerprint") != container.fingerprint():
        raise DataError(f"{path}: fingerprint mismatch (corrupt container)")
    return container


# ---------------------------------------------------------------------------
# IDX (MNIST-style) ingestion


def _read_binary(path) -> bytes:
    """Whole-file bytes; transparently decompresses gzip members."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if raw[:2] == b"\x1f\x8b":
        import gzip
        import zlib
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:  # bad header, cut short, bad data
            raise DataError(f"{path}: bad gzip stream ({exc})") from exc
    return raw


def _open_text(path):
    try:
        return open(path, "r", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_idx(path, magic: int, kind: str) -> tuple[list[int], bytes]:
    """``(shape, payload)`` of either IDX file, else a ``DataError``: the
    magic's last byte counts the big-endian uint32 sizes after it, and the
    payload holds their product of bytes."""
    raw = _read_binary(path)
    start = 4 * (1 + (magic & 0xFF))
    if len(raw) < start:
        raise DataError(f"{path}: truncated IDX header at byte {len(raw)}")
    found, *shape = struct.unpack(f">{start // 4}I", raw[:start])
    if found != magic:
        raise DataError(f"{path}: bad IDX {kind} magic 0x{found:08x} at byte 0 "
                        f"(expected 0x{magic:08x})")
    end = start + math.prod(shape)
    if len(raw) < end:
        raise DataError(f"{path}: truncated IDX payload at byte {len(raw)}")
    return shape, raw[start:end]


def read_idx_images(path) -> np.ndarray:
    """Parse an IDX3 image file into a (n, rows*cols) uint8 matrix."""
    (n, rows, cols), payload = _read_idx(path, IDX_IMAGES_MAGIC, "image")
    return np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols).copy()


def read_idx_labels(path) -> np.ndarray:
    _, payload = _read_idx(path, IDX_LABELS_MAGIC, "label")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def ingest_idx(images_path, labels_path) -> Dataset:
    X = read_idx_images(images_path)
    y = read_idx_labels(labels_path)
    if X.shape[0] != y.shape[0]:
        raise DataError(
            f"image count {X.shape[0]} != label count {y.shape[0]}"
        )
    if X.shape[0] == 0:
        raise DataError("empty IDX dataset")
    return Dataset(X=X, y=y, meta={"source": "idx"})


# ---------------------------------------------------------------------------
# CSV ingestion

CSV_TIME_COLUMN = "time"


def read_signal_csv(path) -> tuple[np.ndarray, float]:
    """Read a `time,ch0,ch1,...` CSV into (n_samples, n_channels) plus fs.

    Time stamps must be finite and strictly increasing; fs is the inverse
    of their median step.
    """
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty CSV") from None
        header = [h.strip() for h in header]
        if not header or header[0] != CSV_TIME_COLUMN:
            raise DataError(f"{path}: first CSV column must be '{CSV_TIME_COLUMN}'")
        n_channels = len(header) - 1
        if n_channels < 1:
            raise DataError(f"{path}: no channel columns found")
        times, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_channels + 1:
                raise DataError(
                    f"{path}: line {lineno}: expected {n_channels + 1} fields, "
                    f"found {len(row)}"
                )
            try:
                time = float(row[0])
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            if not math.isfinite(time):
                raise DataError(f"{path}: line {lineno}: time stamp {row[0]!r} is not finite")
            times.append(time)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 sample rows")
    times = np.asarray(times)
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise DataError(f"{path}: time column must be strictly increasing")
    fs = 1.0 / float(np.median(steps))
    return np.asarray(rows, dtype=np.float64), fs


def read_window_labels_csv(path) -> dict[int, int]:
    """Read a `window_index,label` CSV into a dict."""
    labels: dict[int, int] = {}
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty label CSV") from None
        if [h.strip() for h in header[:2]] != ["window_index", "label"]:
            raise DataError(f"{path}: label CSV header must be 'window_index,label'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                labels[int(row[0])] = int(row[1])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
    if not labels:
        raise DataError(f"{path}: no labels found")
    return labels


def windowize(samples: np.ndarray, fs: float, window_len: int,
              overlap: float = 0.0) -> np.ndarray:
    """Slice a continuous (n_samples, n_channels) signal into windows.

    Windows are non-overlapping by default; ``overlap`` is the fraction of
    each window shared with its successor (in [0, 1)).  The trailing
    remainder that does not fill a window is dropped.
    """
    if window_len < 2:
        raise InvalidInputError("window_len must be >= 2")
    if not 0.0 <= overlap < 1.0:
        raise InvalidInputError("overlap must be in [0, 1)")
    step = max(1, int(round(window_len * (1.0 - overlap))))
    n_samples = samples.shape[0]
    starts = range(0, n_samples - window_len + 1, step)
    wins = [samples[s:s + window_len].T for s in starts]
    if not wins:
        raise DataError(
            f"signal of {n_samples} samples too short for window_len={window_len}"
        )
    return np.stack(wins)  # (n_windows, n_channels, window_len)


def ingest_csv(signal_path, labels_path, window_len: int,
               overlap: float = 0.0) -> Recording:
    samples, fs = read_signal_csv(signal_path)
    windows = windowize(samples, fs, window_len, overlap)
    label_map = read_window_labels_csv(labels_path)
    labels = np.zeros(windows.shape[0], dtype=np.int64)
    for idx in range(windows.shape[0]):
        if idx not in label_map:
            raise DataError(f"{labels_path}: missing label for window {idx}")
        labels[idx] = label_map[idx]
    return Recording(windows=windows, fs=fs, labels=labels,
                     meta={"source": "csv", "overlap": overlap})
