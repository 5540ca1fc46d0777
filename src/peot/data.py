"""Dataset containers and file ingestion (IDX images, CSV recordings).

Two container kinds exist: a ``Recording`` of labeled multi-channel signal
windows, and a flat feature-matrix ``Dataset``.  Both carry a content
fingerprint so downstream folds and reports can assert they ran on
identical data.
"""

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .errors import DataError, InvalidInputError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _check_labels(labels: np.ndarray) -> None:
    """Class labels index classes from 0; a negative one is bad data."""
    if labels.size and labels.min() < 0:
        raise DataError(f"labels must be >= 0, found {int(labels.min())}")


@dataclass
class Recording:
    """Labeled signal windows: ``windows[i]`` is (n_channels, window_len)."""

    windows: np.ndarray  # (n_windows, n_channels, window_len) float64
    fs: float
    labels: np.ndarray  # (n_windows,) int64
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.windows.ndim != 3:
            raise InvalidInputError("windows must be (n_windows, n_channels, len)")
        if self.windows.shape[0] != self.labels.shape[0]:
            raise InvalidInputError("one label per window required")
        if self.windows.shape[2] < 2:
            raise InvalidInputError("windows must hold at least 2 samples")
        if not self.fs > 0:
            raise InvalidInputError("sampling rate must be positive")
        if not np.all(np.isfinite(self.windows)):
            raise DataError("recording contains non-finite samples")
        _check_labels(self.labels)

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
class Dataset:
    """Flat feature matrix with integer class labels."""

    X: np.ndarray  # (n_samples, n_features)
    y: np.ndarray  # (n_samples,) int64
    feature_names: list[str] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise InvalidInputError("X must be 2-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise InvalidInputError("one label per row required")
        if self.feature_names is not None and len(self.feature_names) != self.X.shape[1]:
            raise InvalidInputError("feature_names length must match X columns")
        _check_labels(self.y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if self.y.size else 0

    def fingerprint(self) -> str:
        return serialize.fingerprint_arrays(np.ascontiguousarray(self.X), self.y)


# ---------------------------------------------------------------------------
# container files


def save_container(obj, path) -> None:
    if isinstance(obj, Recording):
        doc = serialize.new_document("recording")
        doc["windows"] = serialize.encode_array(obj.windows)
        doc["labels"] = serialize.encode_array(obj.labels)
        doc["fs"] = obj.fs
        doc["meta"] = obj.meta
        doc["fingerprint"] = obj.fingerprint()
    elif isinstance(obj, Dataset):
        doc = serialize.new_document("dataset")
        doc["X"] = serialize.encode_array(obj.X)
        doc["y"] = serialize.encode_array(obj.y)
        doc["feature_names"] = obj.feature_names
        doc["meta"] = obj.meta
        doc["fingerprint"] = obj.fingerprint()
    else:
        raise InvalidInputError(f"cannot serialize {type(obj).__name__}")
    serialize.write_document(doc, path)


def load_container(path):
    doc = serialize.read_document(path)
    kind = doc.get("kind")
    if kind == "recording":
        serialize.check_header(doc, "recording", path)
        rec = Recording(
            windows=serialize.decode_array(doc["windows"]),
            fs=float(doc["fs"]),
            labels=serialize.decode_array(doc["labels"]),
            meta=doc.get("meta", {}),
        )
        if doc.get("fingerprint") != rec.fingerprint():
            raise DataError(f"{path}: fingerprint mismatch (corrupt container)")
        return rec
    if kind == "dataset":
        serialize.check_header(doc, "dataset", path)
        ds = Dataset(
            X=serialize.decode_array(doc["X"]),
            y=serialize.decode_array(doc["y"]),
            feature_names=doc.get("feature_names"),
            meta=doc.get("meta", {}),
        )
        if doc.get("fingerprint") != ds.fingerprint():
            raise DataError(f"{path}: fingerprint mismatch (corrupt container)")
        return ds
    raise DataError(f"{path}: unknown container kind {kind!r}")


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
        try:
            raw = gzip.decompress(raw)
        except OSError as exc:
            raise DataError(f"{path}: bad gzip stream ({exc})") from exc
    return raw


def _open_text(path):
    try:
        return open(path, "r", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_idx_images(path) -> np.ndarray:
    """Parse an IDX3 image file into a (n, rows*cols) uint8 matrix."""
    raw = _read_binary(path)
    if len(raw) < 16:
        raise DataError(f"{path}: truncated IDX header at byte {len(raw)}")
    magic, n, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(
            f"{path}: bad IDX image magic 0x{magic:08x} at byte 0 "
            f"(expected 0x{IDX_IMAGES_MAGIC:08x})"
        )
    expected = 16 + n * rows * cols
    if len(raw) < expected:
        raise DataError(f"{path}: truncated IDX payload at byte {len(raw)}")
    payload = raw[16:expected]
    return np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols).copy()


def read_idx_labels(path) -> np.ndarray:
    raw = _read_binary(path)
    if len(raw) < 8:
        raise DataError(f"{path}: truncated IDX header at byte {len(raw)}")
    magic, n = struct.unpack(">II", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise DataError(
            f"{path}: bad IDX label magic 0x{magic:08x} at byte 0 "
            f"(expected 0x{IDX_LABELS_MAGIC:08x})"
        )
    if len(raw) < 8 + n:
        raise DataError(f"{path}: truncated IDX payload at byte {len(raw)}")
    return np.frombuffer(raw[8:8 + n], dtype=np.uint8).astype(np.int64)


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
    """Read a `time,ch0,ch1,...` CSV into (n_samples, n_channels) plus fs."""
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
                times.append(float(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
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
            raise DataError(f"missing label for window {idx}")
        labels[idx] = label_map[idx]
    return Recording(windows=windows, fs=fs, labels=labels,
                     meta={"source": "csv", "overlap": overlap})
