"""Checkpoints as numpy ``.npz`` archives that ``np.load(path)`` reads: one
little-endian float32 or float64 member per array, plus ``meta.config``, the run's
TrainConfig as uint8 JSON text; round trips and repeat saves are bit-identical.
``write_atomic`` is the one write path for a run's files: checkpoint and CSVs."""

import io
import json
import lzma
import os
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .config import TrainConfig

_FLOATS = (np.dtype("<f4"), np.dtype("<f8"))
# raised on damaged archives; np.load allocates what a member's header declares
_READ_ERRORS = (OSError, zipfile.BadZipFile, ValueError, EOFError, RuntimeError, MemoryError,
                zlib.error, lzma.LZMAError)


class CheckpointError(ValueError):
    """Unreadable or malformed checkpoint file, or arrays that cannot be saved."""


@dataclass
class Checkpoint:
    config: TrainConfig
    arrays: dict


def write_atomic(path, write):
    """Call ``write(fh)`` on a binary temp file beside ``path``, then flush,
    fsync and rename it over ``path`` and fsync the directory, which is made
    if missing: a crash at any point leaves the previous file or the new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)  # the rename itself is durable once this syncs
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(path, arrays: dict, config: TrainConfig):
    """Save through ``write_atomic``: a crash mid-write leaves the previous file."""
    members = {}
    for name, arr in arrays.items():
        if name in ("meta.config", "file", "allow_pickle"):  # the config, np.savez's own arguments
            raise CheckpointError(f"{name}: name reserved by the checkpoint format")
        arr = np.asarray(arr)
        members[name] = arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        if arr.dtype not in _FLOATS:
            raise CheckpointError(f"{name}: unsupported dtype {arr.dtype}")
    members["meta.config"] = np.frombuffer(json.dumps(asdict(config)).encode(), dtype=np.uint8)
    write_atomic(path, lambda fh: np.savez(fh, **members))


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
        config = _stored_config(arrays.pop("meta.config", None))
        for name, arr in arrays.items():
            if not isinstance(arr, np.ndarray) or arr.dtype not in _FLOATS:
                raise CheckpointError(f"{name}: not a float32 or float64 array")
    except _READ_ERRORS as exc:  # CheckpointError is a ValueError
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return Checkpoint(config=config, arrays=arrays)


def _stored_config(member) -> TrainConfig:
    """The validated TrainConfig of a ``meta.config`` member: every field, of its type."""
    try:
        values = json.loads(member.tobytes()) if member.dtype == np.uint8 else None
    except (AttributeError, ValueError):  # no member, or not UTF-8 JSON
        values = None
    types = {f.name: f.type for f in fields(TrainConfig)}
    if not isinstance(values, dict) or {k: type(v) for k, v in values.items()} != types:
        raise CheckpointError("missing or malformed meta.config; train again")
    return TrainConfig(**values).validate()
