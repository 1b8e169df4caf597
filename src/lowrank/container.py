"""Binary tensor container: ``[u64 LE header length][JSON header][raw data]``.

The JSON header maps tensor name -> {"dtype": "F32"|"F64", "shape": [...],
"data_offsets": [begin, end]} with offsets relative to the end of the header.
Tensor data is row-major, little-endian. Write order follows dict insertion
order, so a load/save round trip is byte-identical.

Every output file is written through ``atomic_path``: to a temp name beside
it, then moved onto it with ``os.replace``, so a failed or interrupted write
leaves the previous file as it was.
"""

from __future__ import annotations

import json
import math
import os
import struct
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError, IoError

_DTYPES = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_DTYPE_TAGS = {np.dtype("float32"): "F32", np.dtype("float64"): "F64"}


def dtype_tag(arr: np.ndarray) -> str:
    """Container tag ("F32"/"F64") for an array's dtype."""
    tag = _DTYPE_TAGS.get(arr.dtype.newbyteorder("="))
    if tag is None:
        raise FormatError(f"unsupported dtype {arr.dtype}; only float32/float64 are storable")
    return tag


@contextmanager
def atomic_path(path: str | Path):
    """Yield a fresh temp path beside ``path``; a clean exit moves it onto ``path``, an error removes it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_container(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float32/float64 tensors to ``path`` in insertion order.

    Each tensor is written straight from its own (little-endian, C-ordered)
    buffer, so a save copies no payload.
    """
    header: dict[str, dict] = {}
    blocks: list[np.ndarray] = []
    end = 0
    for name, arr in tensors.items():
        tag = dtype_tag(arr)
        data = np.ascontiguousarray(arr, dtype=_DTYPES[tag])
        header[name] = {
            "dtype": tag,
            "shape": [int(s) for s in arr.shape],
            "data_offsets": [end, end + data.nbytes],
        }
        end += data.nbytes
        blocks.append(data)
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    try:
        with atomic_path(path) as tmp, open(tmp, "xb") as fh:
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for data in blocks:
                fh.write(data.data)
    except OSError as exc:
        raise IoError(f"cannot write container {path}: {exc}") from exc


def load_container(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container; returns tensors in file order, in their stored dtype.

    Each tensor's byte range is read straight into its own array, so a load
    holds one copy of the payload.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(8)
            if len(prefix) < 8:
                raise FormatError(f"{path}: file too short for a container header")
            (header_len,) = struct.unpack("<Q", prefix)
            if 8 + header_len > size:
                raise FormatError(f"{path}: declared header length {header_len} exceeds file size")
            try:
                header = json.loads(fh.read(header_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise FormatError(f"{path}: unreadable container header: {exc}") from exc
            if not isinstance(header, dict):
                raise FormatError(f"{path}: container header must be a JSON object")
            start, length = 8 + header_len, size - 8 - header_len  # the payload's range
            return {name: _read_entry(path, fh, name, entry, start, length) for name, entry in header.items()}
    except OSError as exc:
        raise IoError(f"cannot read container {path}: {exc}") from exc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _read_entry(path, fh, name: str, entry, start: int, length: int) -> np.ndarray:
    try:
        tag = entry["dtype"]
        shape = entry["shape"]
        offsets = entry["data_offsets"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed header entry for {name!r}") from exc
    if not isinstance(tag, str) or tag not in _DTYPES:
        raise FormatError(f"{path}: tensor {name!r} has unknown dtype tag {tag!r}")
    if not isinstance(shape, list) or not all(_is_int(s) and s > 0 for s in shape):
        raise FormatError(f"{path}: tensor {name!r} has invalid shape {shape!r}")
    if not (isinstance(offsets, list) and len(offsets) == 2 and all(_is_int(o) for o in offsets)):
        raise FormatError(f"{path}: tensor {name!r} has invalid data_offsets {offsets!r}")
    begin, end = offsets
    if not (0 <= begin <= end <= length):
        raise FormatError(f"{path}: tensor {name!r} offsets [{begin}, {end}] out of bounds")
    dtype = _DTYPES[tag]
    expected = math.prod(shape) * dtype.itemsize
    if end - begin != expected:
        raise FormatError(
            f"{path}: tensor {name!r} holds {end - begin} bytes, "
            f"shape {shape} ({tag}) requires {expected}"
        )
    buf = np.empty(expected, dtype=np.uint8)
    fh.seek(start + begin)
    got = fh.readinto(buf)  # a buffered read fills buf unless the file ends first
    if got != expected:
        raise FormatError(f"{path}: tensor {name!r} is cut short after {got} of {expected} bytes")
    return buf.view(dtype).reshape(shape)
