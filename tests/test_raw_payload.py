"""Version-2 container files: the arrays of at least ``_RAW_MIN_NBYTES`` are
raw little-endian bytes after the JSON line, and everything else is as in
version 1.

A save -> load -> save gives the same bytes; a version-1 file of the same
recording (every array base64, as ``old_encode_array`` writes it) still
loads to the same fingerprint and trains the same model; every malformed
layout exits 3 from ``train`` and ``eval`` without an output; and a save or
a load holds no text copy of the payload.
"""

import base64
import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from peot import serialize
from peot.cli import EXIT_DATA, main
from peot.data import Dataset, Recording, load_container, save_container
from peot.errors import DataError


def old_encode_array(arr):
    arr = np.ascontiguousarray(arr)
    dt = arr.dtype.newbyteorder("<")
    arr = arr.astype(dt, copy=False)
    return {"dtype": dt.str, "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def old_container_text(container) -> bytes:
    """The version-1 file of ``container``: one canonical JSON line, every
    array base64."""
    doc = {"format": "peot", "version": 1, "kind": container.KIND,
           "meta": container.meta, "fingerprint": container.fingerprint()}
    if isinstance(container, Recording):
        doc.update(windows=old_encode_array(container.windows), fs=container.fs,
                   labels=old_encode_array(container.labels))
    else:
        doc.update(X=old_encode_array(container.X), y=old_encode_array(container.y),
                   feature_names=container.feature_names)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def split(path):
    """(header, payload) of a version-2 file."""
    raw = path.read_bytes()
    line, _, payload = raw.partition(b"\n")
    return json.loads(line), payload


def join(path, header, payload):
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_bytes(line.encode("ascii") + b"\n" + payload)


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


# ---------------------------------------------------------------------------
# the layout


@pytest.fixture(scope="module")
def seizure_sized(tmp_path_factory):
    """A recording of 800 windows, 4 channels and 256 samples (a payload P
    of 6.5 MB), saved and loaded once, so imports and caches are outside
    the memory measures."""
    rng = np.random.default_rng(0)
    rec = Recording(rng.standard_normal((800, 4, 256)), fs=256.0,
                    labels=rng.integers(0, 2, 800), meta={"task": "t"})
    path = tmp_path_factory.mktemp("raw") / "rec.json"
    save_container(rec, path)
    load_container(path)
    return rec, path


def _big_dataset():
    """A feature matrix and labels both above the threshold: two raw arrays."""
    n = serialize._RAW_MIN_NBYTES // 8 + 5
    rng = np.random.default_rng(5)
    return Dataset(rng.standard_normal((n, 1)), rng.integers(0, 3, n),
                   feature_names=["f"], meta={"source": "test"})


def test_a_large_recording_is_a_version_2_file(seizure_sized):
    rec, path = seizure_sized
    header, payload = split(path)
    assert header["version"] == 2 and header["kind"] == "recording"
    assert header["windows"] == {"dtype": "<f8", "shape": [800, 4, 256], "offset": 0,
                                 "nbytes": rec.windows.nbytes}
    assert header["labels"] == old_encode_array(rec.labels)  # 6.4 kB stays base64
    assert payload == rec.windows.tobytes()
    assert header["fingerprint"] == rec.fingerprint()


def test_two_raw_arrays_follow_in_offset_order(tmp_path):
    data = _big_dataset()
    save_container(data, tmp_path / "d.json")
    header, payload = split(tmp_path / "d.json")
    assert header["version"] == 2
    assert [header[k]["offset"] for k in ("X", "y")] == [0, data.X.nbytes]
    assert payload == data.X.tobytes() + data.y.tobytes()


@pytest.mark.parametrize("make", [
    lambda: Recording(np.random.default_rng(2).standard_normal((800, 4, 256)), fs=256.0,
                      labels=np.arange(800) % 3, meta={"seed": 2}),
    _big_dataset,
    lambda: Dataset(np.asfortranarray(np.random.default_rng(3).standard_normal(
        (serialize._RAW_MIN_NBYTES // 16, 2))), np.zeros(serialize._RAW_MIN_NBYTES // 16)),
], ids=["recording", "dataset", "fortran-ordered-dataset"])
def test_save_load_save_is_byte_identical(make, tmp_path):
    container = make()
    save_container(container, tmp_path / "a.json")
    back = load_container(tmp_path / "a.json")
    assert back.fingerprint() == container.fingerprint()
    for name in ("windows", "labels", "X", "y"):
        if hasattr(back, name):
            arr = getattr(back, name)
            assert arr.flags.writeable and arr.flags.c_contiguous
            assert np.array_equal(arr, getattr(container, name))
    save_container(back, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


def test_a_small_container_keeps_the_version_1_text(tmp_path):
    rng = np.random.default_rng(4)
    rec = Recording(rng.standard_normal((200, 4, 256)), fs=256.0,
                    labels=rng.integers(0, 2, 200), meta={})
    assert rec.windows.nbytes < serialize._RAW_MIN_NBYTES
    save_container(rec, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_bytes() == old_container_text(rec)


def test_a_file_with_trailing_whitespace_is_still_version_1(tmp_path):
    rec = Recording(np.zeros((3, 1, 8)), fs=8.0, labels=[0, 1, 0])
    (tmp_path / "r.json").write_bytes(old_container_text(rec) + b"\n \r\n")
    assert load_container(tmp_path / "r.json").fingerprint() == rec.fingerprint()
    (tmp_path / "r.json").write_bytes(old_container_text(rec) + b"x")
    with pytest.raises(DataError, match="not an ASCII JSON document"):
        load_container(tmp_path / "r.json")


# ---------------------------------------------------------------------------
# version 1 still reads, and trains the same model


@pytest.fixture(scope="module")
def both_versions(tmp_path_factory):
    """The 800-window seed-7 seizure recording of ``peot synth`` as the
    version-2 file it writes and as its version-1 text."""
    out = tmp_path_factory.mktemp("versions")
    assert _quiet(["synth", "--task", "seizure", "--seed", "7", "--out", str(out)]) == 0
    v2 = out / "dataset.json"
    rec = load_container(v2)
    v1 = out / "v1.json"
    v1.write_bytes(old_container_text(rec))
    return {"v1": v1, "v2": v2, "fingerprint": rec.fingerprint(), "out": out}


def test_the_synth_recording_is_version_2(both_versions):
    assert split(both_versions["v2"])[0]["version"] == 2
    assert json.loads(both_versions["v1"].read_text())["version"] == 1


def test_a_version_1_file_loads_to_the_same_fingerprint(both_versions):
    a, b = load_container(both_versions["v1"]), load_container(both_versions["v2"])
    assert a.fingerprint() == b.fingerprint() == both_versions["fingerprint"]
    assert np.array_equal(a.windows, b.windows) and np.array_equal(a.labels, b.labels)


def test_both_versions_train_and_compress_the_same_model_json(both_versions, tmp_path):
    models = {}
    for version in ("v1", "v2"):
        ds, d = str(both_versions[version]), tmp_path / version
        assert _quiet(["train", "--dataset", ds, "--out", str(d / "train"), "--seed", "7",
                       "--epochs", "3", "--warmup-epochs", "1", "--lam", "0.1"]) == 0
        assert _quiet(["compress", "--model", str(d / "train" / "model.json"),
                       "--dataset", ds, "--out", str(d / "compress"), "--seed", "7",
                       "--epochs", "1"]) == 0
        models[version] = [(d / step / "model.json").read_bytes()
                            for step in ("train", "compress")]
    assert models["v1"] == models["v2"]
    for raw in models["v2"]:
        # a model document stays one canonical version-1 line, arrays base64
        doc = json.loads(raw)
        assert doc["version"] == 1 and raw.count(b"\n") == 1
        assert raw == serialize.dumps_canonical(doc).encode("ascii")


# ---------------------------------------------------------------------------
# malformed version-2 files


def _labels_overlap(h, p):
    h["labels"] = {"dtype": "<i8", "shape": [800], "offset": 0, "nbytes": 6400}
    return h, p


def _gap(h, p):
    h["windows"]["offset"] = 8
    return h, b"\0" * 8 + p


def _set(key, value):
    def edit(h, p):
        h["windows"][key] = value
        return h, p
    return edit


def _version_1_without_payload(h, p):
    h["version"] = 1
    return h, b""


def _fingerprint(h, p):
    h["fingerprint"] = "0" * 64
    return h, p


def _payload_byte(h, p):
    return h, p[:100] + bytes([p[100] ^ 1]) + p[101:]


def _drop_key(h, p):
    del h["windows"]["nbytes"]
    return h, p


def _no_raw_array(h, p):
    entry = h["windows"]
    h["windows"] = old_encode_array(np.frombuffer(p, entry["dtype"]).reshape(entry["shape"]))
    return h, b""


# edit of (header, payload) -> text the error message holds
MALFORMED = {
    "truncated": (lambda h, p: (h, p[:-8]), "truncated"),
    "trailing-bytes": (lambda h, p: (h, p + b"\0" * 8), "8 bytes follow the last raw array"),
    "nbytes-too-small": (_set("nbytes", 6553592), "windows: a raw array of 6553592 bytes"),
    "shape-disagrees": (_set("shape", [799, 4, 256]), "windows: a raw array of 6553600 bytes"),
    "offset-overlaps": (_labels_overlap, "overlap"),
    "offset-leaves-a-gap": (_gap, "windows: the raw array starts at payload byte 8"),
    "offset-negative": (_set("offset", -1), "windows: malformed raw array entry"),
    "offset-a-float": (_set("offset", 0.0), "windows: malformed raw array entry"),
    "nbytes-missing": (_drop_key, "windows: a raw array entry holds"),
    "not-the-disk-dtype": (_set("dtype", "<i8"), "windows: stored dtype '<i8', expected '<f8'"),
    "object-dtype": (_set("dtype", "|O"), "windows: malformed raw array entry"),
    "raw-entry-in-version-1": (_version_1_without_payload,
                               "windows: a raw array entry in a version-1 document"),
    "raw-entry-in-version-1-with-payload": (lambda h, p: ({**h, "version": 1}, p),
                                            "not an ASCII JSON document"),
    "version-2-without-a-raw-array": (_no_raw_array,
                                      "a version-2 document without a raw array"),
    "altered-fingerprint": (_fingerprint, "fingerprint mismatch"),
    "altered-payload": (_payload_byte, "fingerprint mismatch"),
}


@pytest.fixture(scope="module")
def model_of_a_recording(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert _quiet(["synth", "--task", "seizure", "--n-windows", "120", "--seed", "1",
                   "--out", str(out)]) == 0
    assert _quiet(["train", "--dataset", str(out / "dataset.json"), "--epochs", "1",
                   "--out", str(out / "train")]) == 0
    return out / "train" / "model.json"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_version_2_file_exits_data(case, command, both_versions,
                                               model_of_a_recording, tmp_path, capsys):
    edit, expected = MALFORMED[case]
    path = tmp_path / "dataset.json"
    join(path, *edit(*split(both_versions["v2"])))
    out = tmp_path / "out"
    argv = (["train", "--dataset", str(path), "--epochs", "1"] if command == "train" else
            ["eval", "--model", str(model_of_a_recording), "--dataset", str(path)])
    assert _quiet([*argv, "--out", str(out)]) == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["type"] == "DataError"
    assert error["message"].startswith(f"{path}") and expected in error["message"]
    assert list(out.iterdir()) == []


def test_every_malformed_file_differs_from_the_valid_one(both_versions, tmp_path):
    valid = both_versions["v2"].read_bytes()
    for case, (edit, _) in MALFORMED.items():
        join(tmp_path / "d.json", *edit(*split(both_versions["v2"])))
        assert (tmp_path / "d.json").read_bytes() != valid, case
    join(tmp_path / "d.json", *split(both_versions["v2"]))
    assert (tmp_path / "d.json").read_bytes() == valid


def test_a_raw_entry_outside_a_file_is_a_data_error():
    entry = {"dtype": "<f8", "shape": [2], "offset": 0, "nbytes": 16}
    with pytest.raises(DataError, match="^m.json: W1: a raw array entry in a version-1"):
        serialize.decode_array(entry, where="m.json: W1")
    doc = {"format": "peot", "version": 2, "kind": "recording", "fs": 1.0,
           "windows": entry, "labels": entry}
    with pytest.raises(DataError, match="^cannot read <doc>"):
        Recording.from_doc(doc)


def test_a_version_2_model_document_is_refused(tmp_path):
    from peot.tree import ObliqueTree
    doc = ObliqueTree.random(2, 3, 2, 2, rng=1).to_doc()
    doc["version"] = 2
    with pytest.raises(DataError, match="expected version 1, found 2"):
        serialize.model_from_doc(doc, "m.json", "core")


def test_a_version_2_model_json_exits_data(both_versions, model_of_a_recording,
                                           tmp_path, capsys):
    doc = json.loads(model_of_a_recording.read_text())
    doc["version"] = 2
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps_canonical(doc))
    out = tmp_path / "out"
    assert _quiet(["eval", "--model", str(path), "--dataset", str(both_versions["v1"]),
                   "--out", str(out)]) == EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["message"] == f"{path}: a version-2 document without a raw array"
    assert list(out.iterdir()) == []


def test_a_model_with_a_large_array_stays_version_1(tmp_path):
    """Only containers are written raw: a tree whose W1 (1 x 8200 x 64
    float64) is above the threshold trains, compresses and evaluates
    through one-line base64 model documents."""
    rng = np.random.default_rng(6)
    X = rng.standard_normal((60, 64))
    ds = tmp_path / "d.json"
    save_container(Dataset(X, (X[:, 0] > 0).astype(int),
                           feature_names=[f"f{i}" for i in range(64)]), ds)
    train, compress = tmp_path / "train", tmp_path / "compress"
    assert _quiet(["train", "--dataset", str(ds), "--out", str(train), "--depth", "1",
                   "--hidden", "8200", "--epochs", "2", "--warmup-epochs", "1"]) == 0
    assert _quiet(["compress", "--model", str(train / "model.json"), "--dataset", str(ds),
                   "--out", str(compress), "--epochs", "1"]) == 0
    assert _quiet(["eval", "--model", str(compress / "model.json"), "--dataset", str(ds),
                   "--out", str(tmp_path / "eval")]) == 0
    for step in (train, compress):
        raw = (step / "model.json").read_bytes()
        doc = json.loads(raw)
        assert doc["version"] == 1 and raw == serialize.dumps_canonical(doc).encode("ascii")
        tree = serialize.model_from_doc(doc["core"], "model.json", "core")
        assert tree.W1.nbytes >= serialize._RAW_MIN_NBYTES
        assert serialize.dumps_canonical(tree.to_doc()) == serialize.dumps_canonical(doc["core"])


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


def test_a_save_holds_no_copy_of_the_payload(seizure_sized):
    """The windows are written from the array itself: 0.006 P, against
    2.99 P for their base64 text and its escaped copy."""
    rec, path = seizure_sized
    saved, _ = _peak(lambda: save_container(rec, path))
    assert saved < 0.1 * rec.windows.nbytes, saved / rec.windows.nbytes


def test_a_load_holds_the_array_and_no_text(seizure_sized):
    """A load holds the array ``np.fromfile`` read and the finiteness mask
    of its check (P / 8): 1.13 P, against 3.34 P for the stored string, its
    decoded bytes and the array's copy of them."""
    rec, path = seizure_sized
    loaded, back = _peak(lambda: load_container(path))
    assert back.fingerprint() == rec.fingerprint()
    assert loaded < 1.3 * rec.windows.nbytes, loaded / rec.windows.nbytes


def test_a_version_1_load_still_fits_the_old_bound(seizure_sized, tmp_path):
    rec, _ = seizure_sized
    path = tmp_path / "v1.json"
    path.write_bytes(old_container_text(rec))
    load_container(path)
    loaded, back = _peak(lambda: load_container(path))
    assert back.fingerprint() == rec.fingerprint()
    assert loaded < 3.5 * rec.windows.nbytes, loaded / rec.windows.nbytes


# ---------------------------------------------------------------------------
# decode of a model document


def test_a_scalar_list_is_one_decode_call(monkeypatch):
    calls = []
    decode = serialize.decode
    monkeypatch.setattr(serialize, "decode", lambda *a, **k: calls.append(a[2:4]) or
                        decode(*a, **k))
    assert serialize.decode(list[int], list(range(200)), "m.json", "k") == list(range(200))
    assert serialize.decode(list[float], [1, 2.5], "m.json", "k") == [1.0, 2.5]
    assert serialize.decode(list[str] | None, ["a"], "m.json", "k") == ["a"]
    assert len(calls) == 3
    # a list of documents still decodes item by item
    assert serialize.decode(list[tuple[int, int]], [[1, 2], [3, 4]]) == [(1, 2), (3, 4)]

