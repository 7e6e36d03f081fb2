"""Parameter checkpoint container.

Binary layout, all integers little-endian:

  magic    4 bytes  b"SKCP"
  version  u16      1
  count    u32      number of tensors
  then per tensor:
    name_len u16, name UTF-8,
    dtype    u8   (4 = float32, 8 = float64),
    ndim     u8,  dims ndim * u32,
    payload  little-endian floats, C order
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, UnsupportedError
from ..textio import read_bytes, write_bytes

_MAGIC = b"SKCP"
_HEAD = struct.Struct("<4sHI")
_DTYPE_CODES = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}
_CODE_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def save_checkpoint(tensors: dict[str, np.ndarray], path) -> None:
    parts = [_HEAD.pack(_MAGIC, 1, len(tensors))]
    for name, array in tensors.items():
        array = np.asarray(array)
        if array.dtype not in _DTYPE_CODES:
            raise UnsupportedError(f"checkpoint supports float32/float64, got {array.dtype}")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<BB", _DTYPE_CODES[array.dtype], array.ndim))
        parts.append(struct.pack(f"<{array.ndim}I", *array.shape))
        parts.append(np.ascontiguousarray(array).astype(array.dtype.newbyteorder("<")).tobytes())
    write_bytes(path, b"".join(parts), "checkpoint")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read what ``save_checkpoint`` wrote; a non-finite value is a FormatError."""
    raw = read_bytes(path, "checkpoint")
    if len(raw) < _HEAD.size:
        raise FormatError(f"checkpoint too short: {path}")
    magic, version, count = _HEAD.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"bad checkpoint magic in {path}")
    if version != 1:
        raise UnsupportedError(f"unsupported checkpoint version {version}")
    offset = _HEAD.size
    tensors: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            code, ndim = struct.unpack_from("<BB", raw, offset)
            offset += 2
            shape = struct.unpack_from(f"<{ndim}I", raw, offset)
            offset += 4 * ndim
            dtype = _CODE_DTYPES.get(code)
            if dtype is None:
                raise FormatError(f"unknown dtype code {code} in {path}")
            n_items = int(np.prod(shape, dtype=np.int64))
            n_bytes = n_items * dtype.itemsize
            if offset + n_bytes > len(raw):
                raise FormatError(f"truncated payload in checkpoint {path}")
            payload = np.frombuffer(raw, dtype=dtype, count=n_items, offset=offset)
            if not np.isfinite(payload).all():
                raise FormatError(f"tensor {name!r} holds a non-finite value in checkpoint {path}")
            offset += n_bytes
            tensors[name] = payload.reshape(shape).astype(dtype.newbyteorder("="))
        if offset != len(raw):
            raise FormatError(f"trailing bytes in checkpoint {path}")
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(f"truncated checkpoint {path}: {exc}") from exc
    return tensors
