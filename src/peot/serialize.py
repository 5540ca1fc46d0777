"""Versioned JSON documents and the one codec that stores every object.

A stored class is a dataclass deriving from ``Stored``: its fields are its
document's keys, and each field's type says how its value is stored.  An
``np.ndarray`` is base64 of its little-endian bytes, with dtype and shape, so
float64 values survive save -> load -> save bit-exactly.  ``array_field``
declares its dtype in memory and, where it differs, on disk (a prune mask is
bool in memory, uint8 on disk); the stored dtype must be the disk dtype, and
an array field without one keeps the stored dtype.  ``int``, ``float``,
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

Array payloads are read, written and hashed from the buffers already held:
base64 runs on the array itself and back from the stored string, the
fingerprint hashes the array, and ``write_document`` streams the encoding
to the file in bounded slices, so a document is never joined in memory.
"""

import binascii
import dataclasses
import functools
import hashlib
import json
import reprlib
import sys
import types
import typing

import numpy as np

from .errors import ConfigError, DataError, InvalidInputError

FORMAT_NAME = "peot"
FORMAT_VERSION = 1

# the canonical encoding: ASCII, sorted keys, no whitespace
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# characters handed to the text file per write: bounds its encoded copy
_WRITE_SLICE = 1 << 20


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    # normalize to little-endian so documents are portable
    dt = arr.dtype.newbyteorder("<")
    arr = arr.astype(dt, copy=False)
    return {
        "dtype": dt.str,
        "shape": list(arr.shape),
        "data": binascii.b2a_base64(arr, newline=False).decode("ascii"),
    }


def decode_array(doc: dict, dtype=None, disk=None, where="<doc>") -> np.ndarray:
    """The array stored in ``doc``, as ``dtype``; with ``disk`` set, the
    stored dtype must be ``disk``."""
    try:
        raw = binascii.a2b_base64(doc["data"])
        arr = np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).reshape(doc["shape"])
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"{where}: malformed array document: {exc}") from exc
    if disk is not None and arr.dtype != disk:
        raise DataError(f"{where}: stored dtype {arr.dtype.str!r}, "
                        f"expected {np.dtype(disk).str!r}")
    return arr.copy() if dtype == disk else arr.astype(dtype)


def dumps_canonical(doc: dict) -> str:
    return _ENCODER.encode(doc) + "\n"


def write_document(doc: dict, path) -> None:
    """Write ``dumps_canonical(doc)`` to ``path``, chunk by chunk as the
    encoder yields them, each in slices of at most ``_WRITE_SLICE``
    characters, so neither the joined text nor its encoding is held."""
    with open(path, "w", encoding="ascii") as fh:
        for chunk in _ENCODER.iterencode(doc):
            for start in range(0, len(chunk), _WRITE_SLICE):
                fh.write(chunk[start:start + _WRITE_SLICE])
        fh.write("\n")


def read_document(path) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise DataError(f"{path}: not an ASCII JSON document ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    return doc


def new_document(kind: str) -> dict:
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind}


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
        obj = decode(cls, doc, path, key)
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


def encode(value, disk=None):
    """The document of a ``Stored`` object, or of one field's value."""
    if isinstance(value, Stored):
        doc = new_document(value.KIND) if value.KIND else {}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            if v is not None or not f.metadata.get("omitted_when_none"):
                doc[f.name] = encode(v, f.metadata.get("disk"))
        return doc
    if isinstance(value, np.ndarray):
        return encode_array(value if disk is None else value.astype(disk, copy=False))
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def decode(kind, value, path="<doc>", key="", metadata=types.MappingProxyType({})):
    """The ``kind`` (a ``Stored`` class or field type) stored in ``value``, found
    at the key path ``key`` ("" for the whole document) of the file ``path``."""
    where = _where(path, key)
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    origin = typing.get_origin(kind) or kind
    if origin is np.ndarray:
        return decode_array(value, metadata.get("dtype"), metadata.get("disk"), where)
    if origin is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    # a tuple is stored as a list, a Stored class as an object
    json_type = list if origin is tuple else origin if origin in _JSON_NAMES else dict
    if type(value) is not json_type:  # so a bool is not an int
        raise DataError(f"{where}: expected {_JSON_NAMES[json_type]}, "
                        f"found {reprlib.repr(value)}")
    if origin in (list, tuple):
        # list[T] holds any number of T, tuple[A, B] exactly an A and a B
        items = typing.get_args(kind) * (len(value) if origin is list else 1)
        if len(items) != len(value):
            raise DataError(f"{where}: expected a JSON list of {len(items)} items, "
                            f"found {reprlib.repr(value)}")
        return origin(decode(item, v, path, f"{key}[{i}]")
                      for i, (item, v) in enumerate(zip(items, value)))
    if not issubclass(origin, Stored):
        return value
    for name, expected in new_document(origin.KIND).items() if origin.KIND else ():
        if value.get(name) != expected:
            raise DataError(f"{where}: expected {name} {expected!r}, found {value.get(name)!r}")
    values = {}
    for name, field_kind, field_metadata, optional in _layout(origin):
        sub = f"{key}.{name}" if key else name
        if name in value:
            values[name] = decode(field_kind, value[name], path, sub, field_metadata)
        elif not optional:
            raise DataError(f"{path}: {sub} is missing")
    try:
        return origin(**values)
    except (InvalidInputError, ConfigError, DataError) as exc:
        raise DataError(f"{where}: {exc}") from exc


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


def _where(path, key) -> str:
    return f"{path}: {key}" if key else str(path)


def model_from_doc(doc: dict, path="<doc>", key=""):
    """Any stored model by its kind; a ``gbt-ensemble`` is a one-member ``GbtOvR``."""
    from .boosting import GbtOvR
    from .tree import ObliqueTree
    return decode_kind(doc, {"oblique-tree": ObliqueTree, "gbt-ensemble": GbtOvR,
                             "gbt-ovr": GbtOvR}, path, key)
