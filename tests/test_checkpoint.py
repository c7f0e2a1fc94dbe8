"""Binary checkpoint format: round trips, header checks, truncation."""

import gc
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalseg.checkpoint import (
    HASH_BYTES,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from causalseg.rngs import derive_rng

HASH = bytes(range(HASH_BYTES))


def _arrays(dtype=np.float32):
    rng = derive_rng(0, "ckpt")
    return {
        "enc.w": rng.standard_normal((3, 2, 3, 3)).astype(dtype),
        "enc.b": rng.standard_normal(3).astype(dtype),
        "scalar": np.asarray(rng.standard_normal(), dtype=dtype),
        "meta.epoch": np.asarray(7.0, dtype=dtype),
    }


def test_round_trip_bit_identical(tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = _arrays()
    save_checkpoint(path, arrays, k=16, config_hash=HASH)
    ckpt = load_checkpoint(path)
    assert ckpt.k == 16
    assert ckpt.config_hash == HASH
    assert set(ckpt.arrays) == set(arrays)
    for name, arr in arrays.items():
        got = ckpt.arrays[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()


def test_round_trip_float64(tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = _arrays(np.float64)
    save_checkpoint(path, arrays, k=4, config_hash=HASH)
    ckpt = load_checkpoint(path)
    for name, arr in arrays.items():
        assert ckpt.arrays[name].dtype == np.float64
        assert ckpt.arrays[name].tobytes() == arr.tobytes()


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, _arrays(), k=16, config_hash=HASH)
    save_checkpoint(b, _arrays(), k=16, config_hash=HASH)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _arrays(), k=16, config_hash=HASH)
    raw = bytearray(path.read_bytes())
    raw[:2] = b"XX"
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _arrays(), k=16, config_hash=HASH)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC)] = 99
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncation_never_crashes(tmp_path):
    # The record stream carries no count, so a cut exactly at a record
    # boundary reads as a shorter valid file; any other cut must raise.
    path = tmp_path / "model.ckpt"
    arrays = _arrays()
    save_checkpoint(path, arrays, k=16, config_hash=HASH)
    raw = path.read_bytes()
    stub = tmp_path / "stub.ckpt"
    raised = clean = 0
    for cut in range(len(raw)):
        stub.write_bytes(raw[:cut])
        try:
            ckpt = load_checkpoint(stub)
        except CheckpointError:
            raised += 1
        else:
            clean += 1
            assert len(ckpt.arrays) < len(arrays)
    assert raised > clean  # boundary cuts are rare; most positions raise
    assert clean == len(arrays)  # header end + each record boundary but EOF


def test_rejects_unknown_dtype_code(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"x": np.zeros(2, dtype=np.float32)}, k=4, config_hash=HASH)
    raw = bytearray(path.read_bytes())
    # dtype code byte sits right after the 4-byte name length + 1-byte name
    offset = len(MAGIC) + 8 + HASH_BYTES + 4 + 1
    raw[offset] = 250
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="dtype code"):
        load_checkpoint(path)


def test_save_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        save_checkpoint(tmp_path / "x.ckpt", {"x": np.zeros(2, dtype=np.int32)},
                        k=4, config_hash=HASH)


def test_save_rejects_short_hash(tmp_path):
    with pytest.raises(CheckpointError, match="hash"):
        save_checkpoint(tmp_path / "x.ckpt", {"x": np.zeros(2, dtype=np.float32)},
                        k=4, config_hash=b"short")


def test_empty_arrays_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, k=8, config_hash=HASH)
    ckpt = load_checkpoint(path)
    assert ckpt.arrays == {} and ckpt.k == 8


def test_missing_or_unreadable_path(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path)  # a directory


def test_load_closes_its_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _arrays(), k=16, config_hash=HASH)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_checkpoint(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _record(name: bytes, value: float) -> bytes:
    return struct.pack("<I", len(name)) + name + struct.pack("<BBI", 0, 1, 1) + \
        np.float32(value).tobytes()


def _header() -> bytes:
    return MAGIC + struct.pack("<II", 1, 4) + HASH


def test_rejects_non_utf8_name(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(_header() + _record(b"\xff\xfe", 1.0))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


def test_rejects_duplicate_name(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(_header() + _record(b"w", 1.0) + _record(b"w", 2.0))
    with pytest.raises(CheckpointError, match="duplicate array name 'w'"):
        load_checkpoint(path)


def test_dims_whose_product_wraps_int64_read_as_truncated(tmp_path):
    # 2^21 * 2^21 * 2^22 = 2^64 elements: an int64 product would wrap to 0
    path = tmp_path / "model.ckpt"
    path.write_bytes(_header() + struct.pack("<I", 1) + b"w" + struct.pack("<BB", 0, 3)
                     + struct.pack("<3I", 2**21, 2**21, 2**22))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def valid_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(path, _arrays(), k=16, config_hash=HASH)
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_corrupt_bytes_raise_only_checkpoint_error(valid_bytes, tmp_path_factory, data):
    raw = bytearray(valid_bytes[:data.draw(st.integers(0, len(valid_bytes)), label="cut")])
    flips = data.draw(st.lists(st.tuples(st.integers(0, max(len(raw) - 1, 0)),
                                         st.integers(1, 255)), max_size=4), label="flips")
    for pos, bits in flips:
        if raw:
            raw[pos] ^= bits
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
