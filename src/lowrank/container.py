"""Binary tensor container: ``[u64 LE header length][JSON header][raw data]``.

The JSON header maps tensor name -> {"dtype": "F32"|"F64", "shape": [...],
"data_offsets": [begin, end]} with offsets relative to the end of the header.
Tensor data is row-major, little-endian. Write order follows dict insertion
order, so a load/save round trip is byte-identical. The writer pads the
header with ASCII spaces (counted in its length) so that the data starts at a
multiple of 8 bytes into the file.

A load maps the file read-only and returns each tensor as a view into the
map, so no payload byte is copied and the pages are read as they are used. A
tensor whose file offset is not a multiple of its itemsize (as in files
written before the padding, or after an F32 tensor of odd length) is copied
into aligned memory. Every loaded tensor is read-only. The map lives as long
as any of its views.

Every output file is written through ``atomic_path``: to a temp name beside
it, then moved onto it with ``os.replace``, so a failed or interrupted write
leaves the previous file as it was. Replacing a file gives it a new inode, so
a run may write over the very files it has mapped. Rewriting or truncating a
mapped file in place (rather than replacing it) while a run reads it can kill
that run with SIGBUS.

Each JSON output is a dataclass, and ``write_json`` writes it as
``dataclasses.asdict`` forms it, so its keys are the dataclass's fields in
their declared order.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import uuid
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import FormatError, IoError, NumericalError

_DTYPES = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_DTYPE_TAGS = {np.dtype("float32"): "F32", np.dtype("float64"): "F64"}
_ALIGN = 8  # the payload's start in the file, as a multiple of this


def dtype_tag(arr: np.ndarray) -> str:
    """Container tag ("F32"/"F64") for an array's dtype."""
    tag = _DTYPE_TAGS.get(arr.dtype.newbyteorder("="))
    if tag is None:
        raise FormatError(f"unsupported dtype {arr.dtype}; only float32/float64 are storable")
    return tag


@contextmanager
def atomic_path(path: str | Path):
    """Yield a fresh temp path beside ``path``; a clean exit moves it onto ``path``, an error removes it.

    An OSError on the way, the temp file's or the move's, is an IoError naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def dump_json(doc, name: str) -> str:
    """The dataclass ``doc`` as indented JSON; NumericalError naming the output ``name`` if it holds NaN or inf."""
    try:
        return json.dumps(asdict(doc), indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"cannot write {name}: it holds a non-finite value ({exc})") from exc


def write_json(doc, path: str | Path) -> None:
    """Write the dataclass ``doc`` to ``path`` as ``dump_json`` forms it, plus a newline; IoError naming the file."""
    text = dump_json(doc, str(path))
    with atomic_path(path) as tmp:
        tmp.write_text(text + "\n", "utf-8")


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
    blob += b" " * (-(8 + len(blob)) % _ALIGN)
    with atomic_path(path) as tmp, open(tmp, "xb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for data in blocks:
            fh.write(data.data)


def load_container(path: str | Path) -> dict[str, np.ndarray]:
    """Map a container read-only; returns tensors in file order, in their stored dtype.

    Each tensor is a read-only view into the map, or a read-only aligned copy
    if its file offset is not a multiple of its itemsize. Every header check
    runs before any view is made.
    """
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size < 8:
                raise FormatError(f"{path}: file too short for a container header")
            try:
                view = np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ), dtype=np.uint8)
            except (OSError, ValueError) as exc:
                raise IoError(f"cannot map container {path}: {exc}") from exc
    except OSError as exc:
        raise IoError(f"cannot read container {path}: {exc}") from exc
    (header_len,) = struct.unpack("<Q", view[:8])
    if 8 + header_len > len(view):
        raise FormatError(f"{path}: declared header length {header_len} exceeds file size")
    try:
        header = json.loads(view[8 : 8 + header_len].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable container header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: container header must be a JSON object")
    payload = view[8 + header_len :]
    entries = {name: _check_entry(path, name, entry, len(payload)) for name, entry in header.items()}
    return {
        name: _aligned(payload[begin:end].view(dtype).reshape(shape))
        for name, (dtype, shape, begin, end) in entries.items()
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_entry(path, name: str, entry, length: int) -> tuple[np.dtype, list[int], int, int]:
    """(dtype, shape, begin, end) of a header entry whose range lies within ``length`` payload bytes."""
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
    return dtype, shape, begin, end


def _aligned(arr: np.ndarray) -> np.ndarray:
    """``arr``, or a read-only copy in aligned memory if its address is not aligned for its dtype."""
    if arr.flags.aligned:
        return arr
    arr = arr.copy()
    arr.flags.writeable = False
    return arr
