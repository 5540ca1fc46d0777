"""Array payloads are stored, loaded and hashed from the buffers already held.

The old forms (``tobytes()`` before base64 and sha256, ``b64decode`` of the
stored string, one joined ``dumps_canonical`` write) are written out here as
references: every byte, digest and error stays theirs, while a save and a
load of a recording hold fewer copies of its payload at once.
"""

import base64
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from peot import serialize
from peot.boosting import GbtConfig, quantize_model, train_gbt_multiclass
from peot.compression import compress_pipeline
from peot.data import Dataset, Recording, load_container, save_container
from peot.errors import DataError
from peot.tree import TrainConfig, train


def old_encode_array(arr):
    arr = np.ascontiguousarray(arr)
    dt = arr.dtype.newbyteorder("<")
    arr = arr.astype(dt, copy=False)
    return {"dtype": dt.str, "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def old_decode_array(doc, where):
    try:
        raw = base64.b64decode(doc["data"])
        return np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).reshape(doc["shape"])
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"{where}: malformed array document: {exc}") from exc


def old_fingerprint(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype.str).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _arrays():
    rng = np.random.default_rng(3)
    block = rng.standard_normal((6, 5, 4))
    return {
        "c-ordered": block,
        "fortran-ordered": np.asfortranarray(block),
        "strided": block[::2, 1::2, ::-1],
        "big-endian-float": block.astype(">f8"),
        "big-endian-int": rng.integers(-9, 9, (3, 7)).astype(">i4"),
        "bool": rng.random(11) > 0.5,
        "bool-as-uint8": (rng.random(11) > 0.5).astype(np.uint8),
        "float32": block.astype(np.float32)[1],
        "int64": rng.integers(-2**40, 2**40, 9),
        "empty": np.empty((0, 3)),
        "empty-int": np.empty(0, dtype=np.int64),
        "0-d": np.array(2.5),
        "0-d-big-endian": np.array(7, dtype=">i8"),
    }


ARRAYS = _arrays()


@pytest.mark.parametrize("name", ARRAYS)
def test_encode_array_equals_the_tobytes_form(name):
    assert serialize.encode_array(ARRAYS[name]) == old_encode_array(ARRAYS[name])


@pytest.mark.parametrize("name", ARRAYS)
def test_fingerprint_equals_the_tobytes_form(name):
    arr = ARRAYS[name]
    assert serialize.fingerprint_arrays(arr) == old_fingerprint(arr)
    assert serialize.fingerprint_arrays(arr, arr.T, np.float64([256.0])) == \
        old_fingerprint(arr, arr.T, np.float64([256.0]))


@pytest.mark.parametrize("name", ARRAYS)
def test_decode_array_round_trips(name):
    arr = ARRAYS[name]
    back = serialize.decode_array(serialize.encode_array(arr))
    assert back.flags.writeable and back.flags.c_contiguous
    assert back.dtype == arr.dtype.newbyteorder("<")
    assert np.array_equal(back.reshape(np.shape(arr)), arr)


def test_fingerprint_of_containers_is_unchanged():
    rng = np.random.default_rng(4)
    rec = Recording(rng.standard_normal((5, 2, 16)), fs=128.0,
                    labels=rng.integers(0, 2, 5))
    data = Dataset(np.asfortranarray(rng.standard_normal((6, 3))), rng.integers(0, 3, 6))
    assert rec.fingerprint() == old_fingerprint(rec.windows, rec.labels, np.float64([128.0]))
    assert data.fingerprint() == old_fingerprint(data.X, data.y)


GOOD = {"dtype": "<f8", "shape": [2], "data": base64.b64encode(
    np.array([1.0, 2.0]).tobytes()).decode("ascii")}
MALFORMED = {
    "data missing": {"dtype": "<f8", "shape": [2]},
    "dtype missing": {"shape": [2], "data": GOOD["data"]},
    "shape missing": {"dtype": "<f8", "data": GOOD["data"]},
    "data null": {**GOOD, "data": None},
    "data a number": {**GOOD, "data": 5},
    "data a list": {**GOOD, "data": [GOOD["data"]]},
    "data an object": {**GOOD, "data": {}},
    "data not ASCII": {**GOOD, "data": "AAAAéAAA"},
    "bad padding": {**GOOD, "data": "AAAAA"},
    "too few bytes": {**GOOD, "data": GOOD["data"][:8]},
    "shape mismatch": {**GOOD, "shape": [3]},
    "unknown dtype": {**GOOD, "dtype": "nope"},
    "a list, not a document": [GOOD["data"]],
    "a string, not a document": GOOD["data"],
}


@pytest.mark.parametrize("name", MALFORMED)
def test_decode_array_rejects_what_the_old_decode_rejected(name):
    doc = MALFORMED[name]
    with pytest.raises(DataError) as old:
        old_decode_array(doc, "m.json: W1")
    with pytest.raises(DataError) as new:
        serialize.decode_array(doc, where="m.json: W1")
    prefix = "m.json: W1: malformed array document: "
    assert str(new.value).startswith(prefix) and str(old.value).startswith(prefix)
    # only the wording of the TypeError for a non-string payload differs
    if not (isinstance(doc, dict) and not isinstance(doc.get("data", ""), str)):
        assert str(new.value) == str(old.value)


def test_decode_array_accepts_what_the_old_decode_accepted():
    # b64decode's default discards characters outside the alphabet
    doc = {**GOOD, "data": GOOD["data"][:4] + "\n !" + GOOD["data"][4:]}
    assert np.array_equal(serialize.decode_array(doc), old_decode_array(doc, "x"))


# ---------------------------------------------------------------------------
# the streamed write


def _written(doc, tmp_path):
    serialize.write_document(doc, tmp_path / "doc.json")
    return (tmp_path / "doc.json").read_bytes()


def test_a_string_longer_than_one_slice(tmp_path):
    n = 2 * serialize._WRITE_SLICE + 17
    doc = {"z": "ab\"c\\\né" * (n // 7), "a": [1, 2.5, None, True, -0.0],
           "m": {"y": float("nan"), "x": float("inf")}, "long": "x" * n}
    assert _written(doc, tmp_path) == serialize.dumps_canonical(doc).encode("ascii")
    assert serialize.dumps_canonical(doc) == json.dumps(
        doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("size", [1, 2, 7, 64])
def test_any_slice_size_writes_the_same_bytes(size, tmp_path, monkeypatch):
    doc = serialize.encode(_recording())
    monkeypatch.setattr(serialize, "_WRITE_SLICE", size)
    assert _written(doc, tmp_path) == serialize.dumps_canonical(doc).encode("ascii")


def _recording(n=30, seed=0):
    rng = np.random.default_rng(seed)
    return Recording(rng.standard_normal((n, 3, 64)), fs=128.0,
                     labels=rng.integers(0, 2, n), meta={"task": "t", "seed": seed})


def _models():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((80, 4))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(np.int64)
    cfg = TrainConfig(depth=2, hidden=2, epochs=4, lam=0.05, seed=1)
    c = np.arange(1.0, 5.0)
    tree = train(X, y, cfg, cost_vec=c)
    compressed = compress_pipeline(tree, X, y, 0.5, 2, cfg, cost_vec=c)[0]
    gbt = train_gbt_multiclass(X, y, GbtConfig(n_trees=3, max_depth=2), cost_vec=c)
    return {"tree": tree, "compressed": compressed, "gbt": gbt,
            "pegb": quantize_model(gbt)}


@pytest.mark.parametrize("name", ["tree", "compressed", "gbt", "pegb"])
def test_saved_models_equal_the_canonical_text(name, tmp_path):
    doc = _models()[name].to_doc()
    assert _written(doc, tmp_path) == serialize.dumps_canonical(doc).encode("ascii")


@pytest.mark.parametrize("container", [
    _recording(), _recording(n=0),
    Dataset(np.random.default_rng(2).standard_normal((9, 4)), np.arange(9) % 3,
            feature_names=list("abcd"))])
def test_saved_containers_equal_the_canonical_text_and_reload(container, tmp_path):
    path = tmp_path / "c.json"
    save_container(container, path)
    doc = {**container.to_doc(), "fingerprint": old_fingerprint(
        *((container.windows, container.labels, np.float64([container.fs]))
          if isinstance(container, Recording) else (container.X, container.y)))}
    assert path.read_bytes() == serialize.dumps_canonical(doc).encode("ascii")
    save_container(load_container(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# the copies a save and a load hold


def _peak(fn):
    """The bytes ``fn`` holds at its peak above what was held before it, and
    its result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def seizure_sized(tmp_path_factory):
    """A recording of 800 windows, 4 channels and 256 samples (a payload P
    of 6.5 MB, base64 text of 4/3 P), saved and loaded once, so imports and
    caches are outside the measures."""
    rng = np.random.default_rng(0)
    rec = Recording(rng.standard_normal((800, 4, 256)), fs=256.0,
                    labels=rng.integers(0, 2, 800))
    path = tmp_path_factory.mktemp("payload") / "rec.json"
    save_container(rec, path)
    load_container(path)
    return rec, path


def test_a_save_holds_no_bytes_copy_and_no_joined_document(seizure_sized):
    """A save holds the payload string and its escaped copy (8/3 P) plus one
    write slice and its ASCII encoding: 2.99 P, against 4.01 P with a
    ``tobytes()`` copy before base64 and a joined, re-encoded document."""
    rec, path = seizure_sized
    saved, _ = _peak(lambda: save_container(rec, path))
    assert saved < 3.2 * rec.windows.nbytes, saved / rec.windows.nbytes


def test_a_load_holds_no_ascii_copy_of_the_payload(seizure_sized):
    """A load holds the stored string, the decoded bytes and the array's
    copy of them: 3.34 P, against 3.67 P with ``b64decode``'s ASCII copy of
    the string."""
    rec, path = seizure_sized
    loaded, back = _peak(lambda: load_container(path))
    assert back.fingerprint() == rec.fingerprint()
    assert loaded < 3.5 * rec.windows.nbytes, loaded / rec.windows.nbytes


# ---------------------------------------------------------------------------
# decode of scalar lists


@pytest.mark.parametrize("kind, value, bad, expected", [
    (list[int], [1, 2, "3", 4.0], 2, "expected an integer, found '3'"),
    (list[int], [0, True], 1, "expected an integer, found True"),
    (list[int], [1.0], 0, "expected an integer, found 1.0"),
    (list[str], ["a", None, 1], 1, "expected a string, found None"),
    (list[float], [1, 2.5, False], 2, "expected a number, found False"),
    (list[float], [0.5, 10**400], 1, "expected a number, found 1000"),
    (list[float], [0.5, "1"], 1, "expected a number, found '1'"),
])
def test_a_scalar_list_names_its_first_bad_item(kind, value, bad, expected):
    with pytest.raises(DataError) as info:
        serialize.decode(kind, value, "m.json", "train.test_indices")
    assert str(info.value).startswith(f"m.json: train.test_indices[{bad}]: {expected}")


def test_a_float_list_reads_ints_as_floats_and_returns_a_new_list():
    stored = [1, 2.5, -3, 0]
    got = serialize.decode(list[float], stored)
    assert got == [1.0, 2.5, -3.0, 0.0] and all(type(v) is float for v in got)
    assert stored == [1, 2.5, -3, 0]
    ints = [3, 1, 2]
    assert serialize.decode(list[int], ints) == ints
    assert serialize.decode(list[int], ints) is not ints
    assert serialize.decode(list[str] | None, None) is None
    assert serialize.decode(list[str], []) == []


def test_a_scalar_list_that_is_not_a_list():
    with pytest.raises(DataError, match=r"^m.json: k: expected a JSON list, found 5$"):
        serialize.decode(list[int], 5, "m.json", "k")
