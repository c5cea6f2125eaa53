"""Bit-exact binary tensor container (HTEN) and multi-tensor archive (HARC).

HTEN layout (all integers little-endian):

    magic   4 bytes  b"HTEN"
    version u8       1
    dtype   u8       1 = f32, 2 = f64, 3 = u32
    ndim    u8       1..8
    reserved u8      0
    dims    ndim x u64
    payload row-major scalars, little-endian

HARC layout:

    magic   4 bytes  b"HARC"
    version u8       1
    count   u16
    entries: { name_len u16, name UTF-8 (else ParseError), embedded HTEN }

Files are byte-identical across platforms for identical inputs.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

from .errors import (
    BadMagic,
    DtypeUnknown,
    DuplicateName,
    LengthMismatch,
    ParseError,
    ShapeMismatch,
    SpecInvalid,
)

TENSOR_MAGIC = b"HTEN"
ARCHIVE_MAGIC = b"HARC"
VERSION = 1
MAX_NDIM = 8

_DTYPE_CODES = {
    np.dtype("<f4"): 1,
    np.dtype("<f8"): 2,
    np.dtype("<u4"): 3,
}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


def write_tensor(arr: np.ndarray) -> bytes:
    """Serialize an array to HTEN bytes.

    Accepts float32, float64, and uint32 arrays with 1..8 dimensions. A
    C-contiguous little-endian array is copied once, into the result; any
    other is first made so.
    """
    arr = np.asarray(arr)
    if not 1 <= arr.ndim <= MAX_NDIM:  # what the reader accepts
        raise ShapeMismatch(f"ndim {arr.ndim} outside 1..{MAX_NDIM}")
    arr = np.ascontiguousarray(arr)
    dt = arr.dtype.newbyteorder("<")
    if dt not in _DTYPE_CODES:
        raise DtypeUnknown(f"unsupported dtype {arr.dtype}")
    header = TENSOR_MAGIC + struct.pack(
        "<BBBB", VERSION, _DTYPE_CODES[dt], arr.ndim, 0
    )
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype(dt, copy=False)
    return b"".join((header, dims, payload.data))


def _read_tensor_at(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    """Parse one HTEN record starting at `offset`; return (array, end offset)."""
    if data[offset : offset + 4] != TENSOR_MAGIC:
        raise BadMagic(f"expected {TENSOR_MAGIC!r} at offset {offset}")
    if len(data) < offset + 8:
        raise LengthMismatch(
            f"tensor header needs 8 bytes, only {len(data) - offset} available"
        )
    version, dtype_code, ndim, _ = struct.unpack_from("<BBBB", data, offset + 4)
    if version != VERSION:
        raise BadMagic(f"unsupported tensor version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise DtypeUnknown(f"unknown dtype code {dtype_code}")
    if not 1 <= ndim <= MAX_NDIM:
        raise LengthMismatch(f"ndim {ndim} outside 1..{MAX_NDIM}")
    dims_end = offset + 8 + 8 * ndim
    if len(data) < dims_end:
        raise LengthMismatch(
            f"dims need {8 * ndim} bytes, only {len(data) - offset - 8} available"
        )
    dims = struct.unpack_from(f"<{ndim}Q", data, offset + 8)
    dt = _CODE_DTYPES[dtype_code]
    count = math.prod(dims)
    payload_len = count * dt.itemsize
    end = dims_end + payload_len
    if len(data) < end:
        raise LengthMismatch(
            f"payload needs {payload_len} bytes, only {len(data) - dims_end} available"
        )
    arr = np.frombuffer(data, dtype=dt, count=count, offset=dims_end)
    try:  # a zero dim lets the other dims exceed what NumPy can address
        return arr.reshape(dims), end
    except ValueError:
        raise LengthMismatch(f"dims {dims} exceed the addressable array size") from None


def read_tensor(data: bytes) -> np.ndarray:
    """Parse HTEN bytes back into an array (read-only view of the payload;
    any other buffer than `bytes`, which may change later, is copied once)."""
    if not isinstance(data, bytes):
        data = bytes(data)
    arr, end = _read_tensor_at(data, 0)
    if end != len(data):
        raise LengthMismatch(
            f"{len(data) - end} trailing bytes after a {end}-byte tensor"
        )
    return arr


def write_archive(entries: Sequence[tuple[str, np.ndarray]] | dict) -> bytes:
    """Serialize named tensors to HARC bytes. Names must be unique; more than
    65535 sections, or a name not a UTF-8 str or over 65535 bytes, is `SpecInvalid`."""
    entries = list(entries.items() if isinstance(entries, dict) else entries)
    if len(entries) > 0xFFFF:
        raise SpecInvalid(f"{len(entries)} sections, beyond the u16 count of HARC")
    out = [ARCHIVE_MAGIC, struct.pack("<BH", VERSION, len(entries))]
    seen = set()
    for name, arr in entries:
        if not isinstance(name, str):
            raise SpecInvalid(f"section name must be a str, got {type(name).__name__}")
        try:
            raw = name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            raise SpecInvalid(f"section name {name!r} is not UTF-8 text") from None
        if name in seen:
            raise DuplicateName(f"duplicate section name {name!r}")
        seen.add(name)
        if len(raw) > 0xFFFF:
            raise SpecInvalid(f"section name of {len(raw)} bytes, beyond the u16 length of HARC")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(write_tensor(arr))
    return b"".join(out)


def read_archive(data: bytes) -> dict[str, np.ndarray]:
    """Parse HARC bytes into an ordered name -> read-only array mapping."""
    if not isinstance(data, bytes):
        data = bytes(data)
    if data[:4] != ARCHIVE_MAGIC:
        raise BadMagic(f"expected {ARCHIVE_MAGIC!r} archive magic")
    if len(data) < 7:
        raise LengthMismatch("archive header needs 7 bytes")
    version, count = struct.unpack_from("<BH", data, 4)
    if version != VERSION:
        raise BadMagic(f"unsupported archive version {version}")
    offset = 7
    result: dict[str, np.ndarray] = {}
    for _ in range(count):
        if len(data) < offset + 2:
            raise LengthMismatch("archive ends inside an entry header")
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        try:
            name = data[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"section name at byte offset {offset} is not UTF-8") from None
        offset += name_len
        arr, offset = _read_tensor_at(data, offset)
        if name in result:
            raise DuplicateName(f"duplicate section name {name!r}")
        result[name] = arr
    if offset != len(data):
        raise LengthMismatch(f"{len(data) - offset} trailing bytes after archive")
    return result
