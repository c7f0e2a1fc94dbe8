"""Checkpoints as numpy ``.npz`` archives that ``np.load(path)`` reads: one
little-endian float32 or float64 member per array, plus ``meta.k`` (int64)
and ``meta.config_hash`` (32 uint8).  Round trips are bit-identical, and
saving the same arrays twice writes the same bytes."""

import io
import lzma
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HASH_BYTES = 32
_FLOATS = (np.dtype("<f4"), np.dtype("<f8"))
_META = {"meta.k": (np.dtype("<i8"), ()), "meta.config_hash": (np.dtype("u1"), (HASH_BYTES,))}
# raised on damaged archives; np.load allocates what a member's header declares
_READ_ERRORS = (OSError, zipfile.BadZipFile, ValueError, EOFError, RuntimeError, MemoryError,
                zlib.error, lzma.LZMAError)


class CheckpointError(ValueError):
    """Unreadable or malformed checkpoint file, or arrays that cannot be saved."""


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
    members = {}
    for name, arr in arrays.items():
        if name in (*_META, "file", "allow_pickle"):  # the header, np.savez's own arguments
            raise CheckpointError(f"{name}: name reserved by the checkpoint format")
        arr = np.asarray(arr)
        members[name] = arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        if arr.dtype not in _FLOATS:
            raise CheckpointError(f"{name}: unsupported dtype {arr.dtype}")
    members.update(zip(_META, (np.int64(k), np.frombuffer(config_hash, dtype=np.uint8))))
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **members)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a ``save_checkpoint`` file; any fault is a CheckpointError naming ``path``.
    Member CRCs are checked first: np.load reads only the bytes that a member's
    npy header declares, so a damaged shape would load a short array."""
    try:
        raw = Path(path).read_bytes()
        if raw.startswith(b"MAMBO1"):
            raise CheckpointError("a MAMBO1 checkpoint, a format no longer read; train again")
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            damaged = archive.testzip()
        if damaged is not None:
            raise CheckpointError(f"member {damaged!r} is damaged")
        with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
            if len(set(npz.files)) != len(npz.files):
                raise CheckpointError("duplicate member names")
            arrays = {name: npz[name] for name in npz.files}
        k, config_hash = meta = [arrays.pop(name, None) for name in _META]
        for name, arr, spec in zip(_META, meta, _META.values()):
            if not isinstance(arr, np.ndarray) or (arr.dtype, arr.shape) != spec:
                raise CheckpointError(f"missing or malformed {name}")
        for name, arr in arrays.items():
            if not isinstance(arr, np.ndarray) or arr.dtype not in _FLOATS:
                raise CheckpointError(f"{name}: not a float32 or float64 array")
    except _READ_ERRORS as exc:  # CheckpointError is a ValueError
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return Checkpoint(k=int(k), config_hash=config_hash.tobytes(), arrays=arrays)
