import json
import mmap
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank.container import atomic_path, dtype_tag, load_container, save_container
from lowrank.errors import FormatError, IoError, LowrankError
from strategies import JSON_VALUES


def test_round_trip_is_byte_identical(tmp_path, rng):
    tensors = {
        "a": rng.normal(size=(3, 5)),
        "b": rng.normal(size=(4, 2)).astype(np.float32),
        "c": rng.normal(size=(2, 3, 4)),
    }
    p1, p2 = tmp_path / "one.st", tmp_path / "two.st"
    save_container(p1, tensors)
    loaded = load_container(p1)
    save_container(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)


def test_preserves_insertion_order(tmp_path, rng):
    tensors = {"z": rng.normal(size=(2, 2)), "a": rng.normal(size=(2, 2))}
    path = tmp_path / "t.st"
    save_container(path, tensors)
    assert list(load_container(path)) == ["z", "a"]


@given(
    names=st.lists(st.text(max_size=12), max_size=8, unique=True),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_payload_starts_at_an_8_byte_offset_and_round_trips(tmp_path_factory, names, data):
    rng = np.random.default_rng(len(names))
    tensors = {}
    for name in names:
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        shape = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        tensors[name] = rng.normal(size=shape).astype(dtype)
    path = tmp_path_factory.mktemp("aligned") / "t.st"
    save_container(path, tensors)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])
    assert (8 + header_len) % 8 == 0
    loaded = load_container(path)
    assert list(loaded) == names
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].tobytes() == arr.tobytes()


def _raw_container(tensors: dict[str, np.ndarray], pad: int) -> bytes:
    """A container laid out by hand, its header followed by ``pad`` spaces."""
    header, payload = {}, b""
    for name, arr in tensors.items():
        offsets = [len(payload), len(payload) + arr.nbytes]
        header[name] = {"dtype": dtype_tag(arr), "shape": list(arr.shape), "data_offsets": offsets}
        payload += arr.tobytes()
    blob = json.dumps(header, separators=(",", ":")).encode() + b" " * pad
    return struct.pack("<Q", len(blob)) + blob + payload


def test_unaligned_payload_loads_aligned_copies(tmp_path, rng):
    # the layout of a file written before the header padding: the payload at an odd offset
    tensors = {"a": rng.normal(size=(3, 5)), "b": rng.normal(size=(3,)).astype(np.float32), "c": rng.normal(size=(2, 4))}
    payload = sum(arr.nbytes for arr in tensors.values())
    raw = _raw_container(tensors, pad=0)
    raw = _raw_container(tensors, pad=1 - (len(raw) - payload) % 2)
    assert (len(raw) - payload) % 2 == 1
    path = tmp_path / "old.st"
    path.write_bytes(raw)
    loaded = load_container(path)
    for name, arr in tensors.items():
        got = loaded[name]
        assert got.tobytes() == arr.tobytes()
        assert got.flags.aligned and got.flags.c_contiguous and not got.flags.writeable
        assert got.ctypes.data % got.dtype.itemsize == 0


def test_space_padded_header_parses(tmp_path, rng):
    tensors = {"w": rng.normal(size=(4, 4))}
    path = tmp_path / "padded.st"
    path.write_bytes(_raw_container(tensors, pad=21))
    assert load_container(path)["w"].tobytes() == tensors["w"].tobytes()


def test_loaded_tensors_are_read_only(tmp_path, rng):
    path = tmp_path / "t.st"
    save_container(path, {"w": rng.normal(size=(3, 3))})
    w = load_container(path)["w"]
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0


@pytest.mark.parametrize("exc", [OSError("no mapping"), ValueError("bad mapping")], ids=["oserror", "valueerror"])
def test_mapping_failure_is_io_error(tmp_path, monkeypatch, exc):
    path = tmp_path / "t.st"
    save_container(path, {"w": np.ones((2, 2))})

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(mmap, "mmap", fail)
    with pytest.raises(IoError, match=f"cannot map container {path}"):
        load_container(path)


@pytest.mark.parametrize(
    "keep, message", [(3, "too short"), (8 + 40, "exceeds file size"), (-1, "out of bounds")]
)
def test_file_cut_short_is_format_error(tmp_path, keep, message):
    path = tmp_path / "t.st"
    save_container(path, {"w": np.ones((2, 2))})
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(FormatError, match=message):
        load_container(path)


def test_truncated_payload_is_format_error(tmp_path):
    # declared 32x64 float32 but one element's worth of bytes missing
    header = {"w": {"dtype": "F32", "shape": [32, 64], "data_offsets": [0, 32 * 64 * 4]}}
    blob = json.dumps(header, separators=(",", ":")).encode()
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * (32 * 64 * 4 - 4))
    with pytest.raises(FormatError):
        load_container(path)


def test_offset_length_mismatch_is_format_error(tmp_path):
    header = {"w": {"dtype": "F64", "shape": [2, 2], "data_offsets": [0, 24]}}
    blob = json.dumps(header, separators=(",", ":")).encode()
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 24)
    with pytest.raises(FormatError):
        load_container(path)


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"\x01\x02\x03",  # shorter than the length field
        struct.pack("<Q", 10) + b"ab",  # header length beyond EOF
        struct.pack("<Q", 4) + b"nope",  # not JSON
        struct.pack("<Q", 2) + b"[]",  # JSON but not an object
        struct.pack("<Q", 100_000) + b"[" * 100_000,  # nested past the JSON parser's recursion limit
    ],
)
def test_unreadable_header_is_format_error(tmp_path, raw):
    path = tmp_path / "bad.st"
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        load_container(path)


def test_unknown_dtype_tag_rejected(tmp_path):
    header = {"w": {"dtype": "I8", "shape": [2], "data_offsets": [0, 2]}}
    blob = json.dumps(header, separators=(",", ":")).encode()
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00\x00")
    with pytest.raises(FormatError):
        load_container(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_container(tmp_path / "does-not-exist.st")


def test_atomic_path_replaces_only_a_whole_write(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_path(target) as tmp:
            tmp.write_text("partial")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old"
    with atomic_path(target) as tmp:
        tmp.write_text("new")
    assert target.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_path_names_its_target_in_an_io_error(tmp_path):
    target = tmp_path / "missing" / "out.json"
    with pytest.raises(IoError, match=f"^cannot write {re.escape(str(target))}: ") as info:
        with atomic_path(target) as tmp:
            tmp.write_text("lost")
    assert isinstance(info.value.__cause__, FileNotFoundError)


def test_non_float_dtype_rejected_on_save(tmp_path):
    with pytest.raises(FormatError):
        save_container(tmp_path / "t.st", {"w": np.arange(4, dtype=np.int32)})


@pytest.mark.parametrize(
    "field, value",
    [
        ("data_offsets", [0.0, 8.0]),
        ("shape", 5),
        ("shape", [True]),
        ("dtype", ["F64"]),
        ("data_offsets", "ab"),
    ],
    ids=["float-offsets", "int-shape", "bool-shape", "list-dtype", "str-offsets"],
)
def test_mistyped_header_entry_is_format_error(tmp_path, field, value):
    entry = {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}
    entry[field] = value
    blob = json.dumps({"w": entry}, separators=(",", ":")).encode()
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_container(path)


def test_load_holds_one_copy_of_the_payload(tmp_path):
    payload = 16 << 20
    path = tmp_path / "big.st"
    save_container(path, {f"t{i}": np.full((512, 512), float(i)) for i in range(8)})
    tracemalloc.start()
    try:
        tensors = load_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(arr.nbytes for arr in tensors.values()) == payload
    np.testing.assert_array_equal(tensors["t7"], 7.0)
    assert peak < payload / 16  # the one copy is the mapped file; the load allocates no payload


def _valid_container(path) -> bytes:
    save_container(path, {
        "a": np.arange(6, dtype=np.float64).reshape(2, 3),
        "b": np.ones((3,), dtype=np.float32),
        "c": np.full((1, 2, 2), -1.5),
    })
    return path.read_bytes()


@st.composite
def _mutated_containers(draw, valid: bytes) -> bytes:
    (header_len,) = struct.unpack("<Q", valid[:8])
    kind = draw(st.sampled_from(["truncate", "header-length", "field"]))
    if kind == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if kind == "header-length":
        new_len = draw(st.integers(0, len(valid) + 8) | st.integers(0, 2**64 - 1))
        return struct.pack("<Q", new_len) + valid[8:]
    header = json.loads(valid[8 : 8 + header_len])
    name = draw(st.sampled_from(sorted(header)))
    field = draw(st.sampled_from(["dtype", "shape", "data_offsets"]))
    header[name][field] = draw(JSON_VALUES)
    blob = json.dumps(header, separators=(",", ":")).encode()
    return struct.pack("<Q", len(blob)) + blob + valid[8 + header_len :]


def test_mutated_containers_raise_only_lowrank_errors(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    valid = _valid_container(workdir / "valid.st")

    @given(raw=_mutated_containers(valid))
    @settings(max_examples=200, deadline=None)
    def check(raw):
        path = workdir / "mutated.st"
        path.write_bytes(raw)
        try:
            load_container(path)
        except LowrankError:
            pass

    check()
