"""Versioned JSON serialization with bit-exact float round-trips.

Arrays are stored as base64 of their little-endian raw bytes, so float64
values survive save -> load -> save byte-identically.  Documents are
written with sorted keys and fixed separators, which makes repeated saves
of the same object byte-identical as well.
"""

import base64
import hashlib
import json

import numpy as np

from .errors import DataError

FORMAT_NAME = "peot"
FORMAT_VERSION = 1


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    # normalize to little-endian so documents are portable
    dt = arr.dtype.newbyteorder("<")
    arr = arr.astype(dt, copy=False)
    return {
        "dtype": dt.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(doc["data"])
        arr = np.frombuffer(raw, dtype=np.dtype(doc["dtype"]))
        return arr.reshape(doc["shape"]).copy()
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"malformed array document: {exc}") from exc


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_document(doc: dict, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(doc))


def read_document(path) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    return doc


def check_header(doc: dict, expected_kind: str, path="<doc>") -> None:
    if doc.get("format") != FORMAT_NAME:
        raise DataError(f"{path}: not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported version {doc.get('version')!r}")
    if doc.get("kind") != expected_kind:
        raise DataError(
            f"{path}: expected kind {expected_kind!r}, found {doc.get('kind')!r}"
        )


def new_document(kind: str) -> dict:
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind}


def fingerprint_arrays(*arrays: np.ndarray) -> str:
    """Content hash of a sequence of arrays (shape-, dtype- and byte-exact)."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype.str).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def model_from_doc(doc: dict):
    """Rehydrate any serialized model by its kind tag.

    Boosted models come back as a ``GbtOvR``; a ``gbt-ensemble`` document is
    a one-member model."""
    kind = doc.get("kind")
    if kind == "oblique-tree":
        from .tree import ObliqueTree
        return ObliqueTree.from_doc(doc)
    if kind in ("gbt-ensemble", "gbt-ovr"):
        from .boosting import GbtOvR
        return GbtOvR.from_doc(doc)
    raise DataError(f"unknown model kind {kind!r}")
