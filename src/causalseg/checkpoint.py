"""Binary checkpoint persistence.

Layout: magic `MAMBO1`, u32 version, u32 K, 32-byte config hash, then one
record per array: [u32 name length, name bytes, u8 dtype code (0 = f32,
1 = f64), u8 rank, u32 dims..., little-endian payload].  Round-trips are
bit-identical; integers are little-endian throughout.
"""

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"MAMBO1"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
HASH_BYTES = 32


class CheckpointError(ValueError):
    """Malformed checkpoint file or header mismatch."""


@dataclass
class Checkpoint:
    k: int
    config_hash: bytes
    arrays: dict


def save_checkpoint(path, arrays: dict, k: int, config_hash: bytes):
    """Write atomically: a temp file beside ``path`` is flushed, fsynced and
    renamed over it, so a crash mid-write leaves the previous file intact."""
    if len(config_hash) != HASH_BYTES:
        raise CheckpointError(f"config hash must be {HASH_BYTES} bytes, got {len(config_hash)}")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, k))
            fh.write(config_hash)
            for name, arr in arrays.items():
                # np.asarray keeps rank-0 scalars rank 0; tobytes() below emits
                # C order regardless of memory layout
                arr = np.asarray(arr)
                dtype = arr.dtype.newbyteorder("<")
                if dtype not in _DTYPE_CODES:
                    raise CheckpointError(f"{name}: unsupported dtype {arr.dtype}")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<BB", _DTYPE_CODES[dtype], arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
                fh.write(arr.astype(dtype, copy=False).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _take(buf: memoryview, pos: int, count: int, what: str):
    if pos + count > len(buf):
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf[pos:pos + count], pos + count


def load_checkpoint(path) -> Checkpoint:
    try:
        buf = memoryview(Path(path).read_bytes())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    chunk, pos = _take(buf, 0, len(MAGIC), "magic")
    if bytes(chunk) != MAGIC:
        raise CheckpointError(f"bad magic {bytes(chunk)!r}, expected {MAGIC!r}")
    chunk, pos = _take(buf, pos, 8, "version/K")
    version, k = struct.unpack("<II", chunk)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    chunk, pos = _take(buf, pos, HASH_BYTES, "config hash")
    config_hash = bytes(chunk)
    arrays = {}
    while pos < len(buf):
        chunk, pos = _take(buf, pos, 4, "record name length")
        (name_len,) = struct.unpack("<I", chunk)
        chunk, pos = _take(buf, pos, name_len, "record name")
        try:
            name = bytes(chunk).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"record name at byte {pos - name_len} is not UTF-8") from None
        if name in arrays:
            raise CheckpointError(f"duplicate array name {name!r}")
        chunk, pos = _take(buf, pos, 2, f"{name} dtype/rank")
        code, rank = struct.unpack("<BB", chunk)
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{name}: unknown dtype code {code}")
        chunk, pos = _take(buf, pos, 4 * rank, f"{name} dims")
        shape = struct.unpack(f"<{rank}I", chunk) if rank else ()
        dtype = _CODE_DTYPES[code]
        count = math.prod(shape)  # exact: corrupt dims must not wrap around
        chunk, pos = _take(buf, pos, count * dtype.itemsize, f"{name} payload")
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
    return Checkpoint(k=k, config_hash=config_hash, arrays=arrays)
