"""Versioned JSON documents and the one codec that stores every object.

A stored class is a dataclass deriving from ``Stored``: its fields are its
document's keys, and each field's type says how its value is stored.  An
``np.ndarray`` is its little-endian bytes, with dtype and shape, so float64
values survive save -> load -> save bit-exactly.  ``array_field`` declares
its dtype in memory and, where it differs, on disk (a prune mask is bool in
memory, uint8 on disk); the stored dtype must be the disk dtype, and an
array field without one keeps the stored dtype.  ``int``, ``float``,
``str``, ``dict`` and ``list[T]`` are that JSON type (an int is no bool or
fraction; a float may be stored as an int); ``tuple[A, B]`` is a JSON list of
exactly those items; a ``Stored`` class is its nested document, and
``T | None`` is T or null.  A key may be absent when its field has a default,
except an array's; a field declared by ``omitted_when_none`` is left out of
the document while it is None.  A class declared with a kind stores the
``format``/``version``/``kind`` header.  Any decode failure (a missing key, a
wrong type or dtype, the constructor rejecting the values) is a ``DataError``
naming the file and key path, such as ``model.json: core.trees[0].feature``.
Documents are ASCII with sorted keys and fixed separators, so saving an
object twice gives the same bytes.

A file holds one document in one of two versions, after the layout of
NumPy's ``.npy`` (NEP 1).  In version 1 every array is base64 text under
``data``, and the file is the JSON line alone.  A document encoded with
``raw=True`` (only ``data.save_container`` does) writes each array of at
least ``_RAW_MIN_NBYTES`` raw instead: its entry is ``dtype``, ``shape``,
``offset`` and ``nbytes``, the document says ``"version": 2``, and the
payloads follow its JSON line in offset order, contiguous and C-ordered, up
to the end of the file.  Every other document, a model document whatever
its array sizes too, is version 1, so ``to_doc`` is always plain JSON.
Reading a version-2 file checks that its entries tile the bytes after the
line exactly, so a truncated payload, trailing bytes, no raw entry at all or
an entry that overlaps another, leaves a gap or disagrees with its dtype and
shape is a ``DataError`` naming the file and key, and so is a raw entry in
a version-1 document.

Array payloads are read, written and hashed from the buffers already held:
a raw payload is written from the array and read back with ``np.fromfile``,
base64 runs on the array itself and back from the stored string, the
fingerprint hashes the array, and ``write_document`` streams the JSON line
to the file in bounded slices, so a document is never joined in memory.
"""

import binascii
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import reprlib
import sys
import types
import typing

import numpy as np

from .errors import ConfigError, DataError, InvalidInputError

FORMAT_NAME = "peot"
FORMAT_VERSION = 1
RAW_VERSION = 2  # a document whose large arrays follow its JSON line

# the smallest array written raw: above the 1.64 MB payload of a 200-window
# recording, which stays one JSON line that ``json.loads`` reads whole, and
# below the 6.55 MB of an 800-window one
_RAW_MIN_NBYTES = 1 << 22
_RAW_KEYS = {"dtype", "shape", "offset", "nbytes"}

# the canonical encoding: ASCII, sorted keys, no whitespace
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# characters handed to the text file per write: bounds its encoded copy
_WRITE_SLICE = 1 << 20


def encode_array(arr: np.ndarray) -> dict:
    """The base64 document of ``arr``, C-ordered and little-endian."""
    arr = _little_endian(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": binascii.b2a_base64(arr, newline=False).decode("ascii"),
    }


def _little_endian(arr: np.ndarray) -> np.ndarray:
    """``arr`` C-ordered and little-endian, so documents are portable."""
    arr = np.ascontiguousarray(arr)
    return arr.astype(arr.dtype.newbyteorder("<"), copy=False)


def decode_array(doc: dict, dtype=None, disk=None, where="<doc>",
                 payload=None) -> np.ndarray:
    """The array stored in ``doc``, as ``dtype``; with ``disk`` set, the
    stored dtype must be ``disk``.  A raw entry is read from ``payload``,
    the raw arrays of a version-2 file."""
    try:
        if isinstance(doc, dict) and "offset" in doc:
            if payload is None:
                raise DataError(f"{where}: a raw array entry in a "
                                f"version-{FORMAT_VERSION} document")
            arr = payload.read(doc, where)
        else:
            raw = binascii.a2b_base64(doc["data"])
            arr = np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).reshape(doc["shape"])
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"{where}: malformed array document: {exc}") from exc
    if disk is not None and arr.dtype != disk:
        raise DataError(f"{where}: stored dtype {arr.dtype.str!r}, "
                        f"expected {np.dtype(disk).str!r}")
    if dtype != disk:
        return arr.astype(dtype)
    return arr if arr.flags.writeable else arr.copy()  # a base64 array is read-only


class _Payload:
    """The raw arrays of a version-2 file, after its JSON line.  ``read``
    reads one entry's array; ``check``, once all are read, requires their
    entries to tile those bytes exactly."""

    def __init__(self, path):
        try:
            with open(path, "rb") as fh:
                fh.readline()
                self.start = fh.tell()
                self.size = os.fstat(fh.fileno()).st_size - self.start
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        self.path = path
        self.spans = []  # (offset, nbytes, where) of each entry read

    def read(self, entry: dict, where: str) -> np.ndarray:
        if entry.keys() != _RAW_KEYS:
            raise DataError(f"{where}: a raw array entry holds {sorted(entry)}, "
                            f"expected {sorted(_RAW_KEYS)}")
        dtype, shape = np.dtype(entry["dtype"]), entry["shape"]
        offset, nbytes = entry["offset"], entry["nbytes"]
        sizes = [offset, nbytes, *shape] if type(shape) is list else [None]
        if any(type(v) is not int or v < 0 for v in sizes) or dtype.hasobject:
            raise DataError(f"{where}: malformed raw array entry {entry}")
        count = math.prod(shape)
        if nbytes != dtype.itemsize * count:
            raise DataError(f"{where}: a raw array of {nbytes} bytes, while "
                            f"{dtype.str} {shape} takes {dtype.itemsize * count}")
        if offset + nbytes > self.size:
            raise DataError(f"{where}: the raw array ends at byte {offset + nbytes} "
                            f"of a {self.size}-byte payload (the file is truncated)")
        self.spans.append((offset, nbytes, where))
        return np.fromfile(self.path, dtype=dtype, count=count,
                           offset=self.start + offset).reshape(shape)

    def check(self) -> None:
        if not self.spans:
            raise DataError(f"{self.path}: a version-{RAW_VERSION} document "
                            f"without a raw array")
        end = 0
        for offset, nbytes, where in sorted(self.spans):
            if offset != end:
                raise DataError(f"{where}: the raw array starts at payload byte {offset}, "
                                f"expected {end} (arrays overlap or leave a gap)")
            end += nbytes
        if end != self.size:
            raise DataError(f"{self.path}: {self.size - end} bytes follow the last raw array")


def dumps_canonical(doc: dict) -> str:
    """The canonical text of a document that holds no raw array."""
    return _ENCODER.encode(doc) + "\n"


def write_document(doc: dict, path) -> None:
    """Write ``doc`` to ``path``: its JSON line, chunk by chunk as the
    encoder yields them, each in slices of at most ``_WRITE_SLICE``
    characters, so neither the joined text nor its encoding is held; then
    the payload of each array ``encode(..., raw=True)`` left in ``doc``,
    from the array."""
    arrays = []
    doc = _raw_entries(doc, arrays)
    if arrays:
        doc["version"] = RAW_VERSION
    with open(path, "wb") as fh:
        for chunk in _ENCODER.iterencode(doc):
            for start in range(0, len(chunk), _WRITE_SLICE):
                fh.write(chunk[start:start + _WRITE_SLICE].encode("ascii"))
        fh.write(b"\n")
        for arr in arrays:
            fh.write(arr.data)


def _raw_entries(value, arrays: list):
    """``value`` with each array replaced by its raw entry; the arrays are
    appended to ``arrays`` in the order of their offsets."""
    if isinstance(value, np.ndarray):
        offset = sum(arr.nbytes for arr in arrays)
        arrays.append(value)
        return {"dtype": value.dtype.str, "shape": list(value.shape),
                "offset": offset, "nbytes": value.nbytes}
    if isinstance(value, dict):
        return {k: _raw_entries(v, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_raw_entries(v, arrays) for v in value]
    return value


def read_document(path) -> dict:
    """The JSON document at ``path``; of a version-2 file, its first line."""
    try:
        with open(path, "rb") as fh:
            try:
                doc = json.loads(fh.readline().decode("ascii"))
            except ValueError:
                doc = None
            if not isinstance(doc, dict) or (doc.get("version") != RAW_VERSION
                                             and fh.read().strip(b" \t\n\r")):
                fh.seek(0)  # a document of several lines, or not one at all
                doc = json.load(io.TextIOWrapper(fh, encoding="ascii"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise DataError(f"{path}: not an ASCII JSON document ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    return doc


def new_document(kind: str, version=FORMAT_VERSION) -> dict:
    return {"format": FORMAT_NAME, "version": version, "kind": kind}


def fingerprint_arrays(*arrays: np.ndarray) -> str:
    """Content hash of a sequence of arrays (shape-, dtype- and byte-exact)."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype.str).encode())
        h.update(str(arr.shape).encode())
        h.update(arr)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the codec

_STORED = {}  # class name -> Stored subclass, for string annotations


class Stored:
    """Base of a stored dataclass; ``from_doc`` also runs its ``validate()``,
    where it has one.  ``class C(Stored, kind="c")`` gives C a header."""

    KIND = None

    def __init_subclass__(cls, kind=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.KIND = kind or cls.KIND
        _STORED[cls.__name__] = cls

    def to_doc(self) -> dict:
        return encode(self)

    @classmethod
    def from_doc(cls, doc: dict, path="<doc>", key=""):
        """The object stored in ``doc``; a version-2 document's raw arrays
        are read from the file ``path``."""
        payload = (_Payload(path) if cls.KIND and not key and isinstance(doc, dict)
                   and doc.get("version") == RAW_VERSION else None)
        obj = decode(cls, doc, path, key, payload=payload)
        if hasattr(obj, "validate"):
            obj.validate()
        return obj


def array_field(dtype=None, disk=None, **kwargs):
    """A dataclass field of ``dtype`` arrays stored as ``disk`` (default ``dtype``)."""
    metadata = {"dtype": dtype, "disk": dtype if disk is None else disk}
    return dataclasses.field(metadata=metadata, **kwargs)


def omitted_when_none():
    """A dataclass field defaulting to None, and left out of the document while None."""
    return dataclasses.field(default=None, metadata={"omitted_when_none": True})


def encode(value, disk=None, raw=False):
    """The document of a ``Stored`` object, or of one field's value.  With
    ``raw``, an array of at least ``_RAW_MIN_NBYTES`` is left as itself,
    C-ordered and little-endian, for ``write_document`` to store raw."""
    if isinstance(value, Stored):
        doc = new_document(value.KIND) if value.KIND else {}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            if v is not None or not f.metadata.get("omitted_when_none"):
                doc[f.name] = encode(v, f.metadata.get("disk"), raw)
        return doc
    if isinstance(value, np.ndarray):
        arr = value if disk is None else value.astype(disk, copy=False)
        if raw and arr.nbytes >= _RAW_MIN_NBYTES:
            return _little_endian(arr)
        return encode_array(arr)
    if isinstance(value, (list, tuple)):
        return [encode(v, raw=raw) for v in value]
    return value


def decode(kind, value, path="<doc>", key="", metadata=types.MappingProxyType({}),
           payload=None):
    """The ``kind`` (a ``Stored`` class or field type) stored in ``value``, found
    at the key path ``key`` ("" for the whole document) of the file ``path``,
    whose raw arrays, if it is a version-2 file, ``payload`` reads."""
    where = _where(path, key)
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    origin = typing.get_origin(kind) or kind
    if origin is np.ndarray:
        return decode_array(value, metadata.get("dtype"), metadata.get("disk"), where,
                            payload)
    # a tuple is stored as a list, a Stored class as an object
    json_type = list if origin is tuple else origin if origin in _JSON_NAMES else dict
    value = _json_value(json_type, value, path, key)
    if origin is list and typing.get_args(kind) in _SCALAR_ITEMS:
        # a list of scalars is checked item by item here, not by a decode each
        (item,) = typing.get_args(kind)
        return [_json_value(item, v, path, f"{key}[{i}]") for i, v in enumerate(value)]
    if origin in (list, tuple):
        # list[T] holds any number of T, tuple[A, B] exactly an A and a B
        items = typing.get_args(kind) * (len(value) if origin is list else 1)
        if len(items) != len(value):
            raise DataError(f"{where}: expected a JSON list of {len(items)} items, "
                            f"found {reprlib.repr(value)}")
        return origin(decode(item, v, path, f"{key}[{i}]", payload=payload)
                      for i, (item, v) in enumerate(zip(items, value)))
    if not issubclass(origin, Stored):
        return value
    # only the whole document of a version-2 file says version 2
    version = RAW_VERSION if payload is not None and not key else FORMAT_VERSION
    for name, expected in new_document(origin.KIND, version).items() if origin.KIND else ():
        if value.get(name) != expected:
            raise DataError(f"{where}: expected {name} {expected!r}, found {value.get(name)!r}")
    values = {}
    for name, field_kind, field_metadata, optional in _layout(origin):
        sub = f"{key}.{name}" if key else name
        if name in value:
            values[name] = decode(field_kind, value[name], path, sub, field_metadata,
                                  payload)
        elif not optional:
            raise DataError(f"{path}: {sub} is missing")
    if payload is not None and not key:  # every raw array is read, none yet checked
        payload.check()
    try:
        return origin(**values)
    except (InvalidInputError, ConfigError, DataError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def _json_value(json_type, value, path, key):
    """``value``, which must be of ``json_type`` (a float may be stored as
    an int; a bool is no int), found at ``key`` of the file ``path``."""
    if json_type is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if type(value) is not json_type:
        raise DataError(f"{_where(path, key)}: expected {_JSON_NAMES[json_type]}, "
                        f"found {reprlib.repr(value)}")
    return value


def decode_kind(doc, classes: dict, path="<doc>", key=""):
    """``doc`` read by ``classes[kind].from_doc``, where kind is its header's."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in classes:
        raise DataError(f"{_where(path, key)}: unknown kind {kind!r}, "
                        f"expected one of {sorted(classes)}")
    return classes[kind].from_doc(doc, path, key)


@functools.cache
def _layout(cls) -> tuple:
    """(name, type, metadata, may be absent) of each field of ``cls``."""
    hints = typing.get_type_hints(cls, localns=_STORED)
    unset = (dataclasses.MISSING, dataclasses.MISSING)
    return tuple((f.name, hints[f.name], f.metadata, hints[f.name] is not np.ndarray
                  and (f.default, f.default_factory) != unset)
                 for f in dataclasses.fields(cls))


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a JSON list", dict: "a JSON object"}
_SCALAR_ITEMS = ((int,), (float,), (str,))  # the list[T] checked without a decode per item


def _where(path, key) -> str:
    return f"{path}: {key}" if key else str(path)


def model_from_doc(doc: dict, path="<doc>", key=""):
    """Any stored model by its kind; a ``gbt-ensemble`` is a one-member ``GbtOvR``."""
    from .boosting import GbtOvR
    from .tree import ObliqueTree
    return decode_kind(doc, {"oblique-tree": ObliqueTree, "gbt-ensemble": GbtOvR,
                             "gbt-ovr": GbtOvR}, path, key)
