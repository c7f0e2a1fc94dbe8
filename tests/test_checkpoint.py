"""The .npz checkpoint format: round trips, the stored config, corruption, truncation."""

import gc
import io
import json
import os
import stat
import struct
import warnings
import zipfile

import numpy as np
import pytest
from dataclasses import asdict, replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalseg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint, write_atomic
from causalseg.config import TrainConfig
from causalseg.rngs import derive_rng
from causalseg.train import write_rows

CFG = TrainConfig(k=16, size=32, seed=5, data="runs/data")


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
    save_checkpoint(path, arrays, CFG)
    ckpt = load_checkpoint(path)
    assert ckpt.config == CFG
    assert set(ckpt.arrays) == set(arrays)
    for name, arr in arrays.items():
        got = ckpt.arrays[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()


def test_round_trip_float64(tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = _arrays(np.float64)
    save_checkpoint(path, arrays, CFG)
    ckpt = load_checkpoint(path)
    for name, arr in arrays.items():
        assert ckpt.arrays[name].dtype == np.float64
        assert ckpt.arrays[name].tobytes() == arr.tobytes()


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, _arrays(), CFG)
    save_checkpoint(b, _arrays(), CFG)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_bad_magic(tmp_path):
    # a file in the old MAMBO1 format, a zip whose signature is damaged, and garbage
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _arrays(), CFG)
    damaged = b"XX" + path.read_bytes()[2:]
    mambo1 = (b"MAMBO1" + struct.pack("<II", 1, 4) + bytes(32) + struct.pack("<I", 1) + b"w"
              + struct.pack("<BBI", 0, 1, 1) + np.float32(1.0).tobytes())
    for raw, match in [(mambo1, "MAMBO1"), (damaged, "enc.w.npy' is damaged"),
                       (b"not a checkpoint", "not a zip")]:
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match=match) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)


def test_truncation_never_crashes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _arrays(), CFG)
    raw = path.read_bytes()
    stub = tmp_path / "stub.ckpt"
    for cut in range(len(raw)):
        stub.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(stub)


def test_single_bit_flip_in_a_payload_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = _arrays()
    save_checkpoint(path, arrays, CFG)
    raw = bytearray(path.read_bytes())
    raw[raw.find(arrays["enc.w"].tobytes()) + 5] ^= 0x10
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="'enc.w.npy' is damaged"):
        load_checkpoint(path)


def test_rejects_unknown_dtype_code(tmp_path):
    # an int32 array, and a member that is no npy array at all (np.load returns its bytes)
    path = tmp_path / "model.ckpt"
    for member in [("x.npy", _npy((2,), "<i4", bytes(8))), ("x", b"text")]:
        path.write_bytes(_archive([member]))
        with pytest.raises(CheckpointError, match="x: not a float32 or float64 array"):
            load_checkpoint(path)


def test_save_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        save_checkpoint(tmp_path / "x.ckpt", {"x": np.zeros(2, dtype=np.int32)},
                        CFG)


@pytest.mark.parametrize("failure", ["bad dtype after one record", "fsync"])
def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, failure):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _arrays(), CFG)
    before = path.read_bytes()
    update = {"enc.w": np.ones((3, 2, 3, 3), dtype=np.float32)}
    if failure == "fsync":
        def fail(_fd):
            raise OSError("disk full")
        monkeypatch.setattr(os, "fsync", fail)
    else:
        update["bad"] = np.zeros(2, dtype=np.int32)
    with pytest.raises((CheckpointError, OSError)):
        save_checkpoint(path, update, CFG)
    assert path.read_bytes() == before
    assert load_checkpoint(path).arrays.keys() == _arrays().keys()
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_failed_write_rows_keeps_the_previous_csv(tmp_path, monkeypatch):
    path = tmp_path / "metrics.csv"
    write_rows(path, [{"epoch": 0, "dice": 0.5}])
    before = path.read_bytes()

    def fail(_fd):
        raise OSError("disk full")
    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        write_rows(path, [{"epoch": 0, "dice": 0.5}, {"epoch": 1, "dice": 0.25}])
    assert path.read_bytes() == before == b"epoch,dice\r\n0,0.5\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


def test_write_atomic_makes_the_directory_and_fsyncs_file_then_directory(tmp_path, monkeypatch):
    synced, real_fsync = [], os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(
        stat.S_ISDIR(os.fstat(fd).st_mode)) or real_fsync(fd))
    path = tmp_path / "a" / "b" / "x.bin"
    write_atomic(path, lambda fh: fh.write(b"new"))
    assert path.read_bytes() == b"new" and synced == [False, True]
    assert [p.name for p in path.parent.iterdir()] == ["x.bin"]


@pytest.mark.parametrize("name", ["meta.config", "file", "allow_pickle"])
def test_save_rejects_reserved_meta_names(tmp_path, name):
    # np.savez would drop an array named allow_pickle, and fail on one named file
    with pytest.raises(CheckpointError, match=f"{name}: name reserved"):
        save_checkpoint(tmp_path / "x.ckpt", {name: np.zeros(2, dtype=np.float32)},
                        CFG)
    assert list(tmp_path.iterdir()) == []


def test_empty_arrays_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, CFG)
    ckpt = load_checkpoint(path)
    assert ckpt.arrays == {} and ckpt.config == CFG


def test_missing_or_unreadable_path(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path)  # a directory


def test_load_closes_its_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _arrays(), CFG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_checkpoint(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_numpy_reads_a_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = _arrays()
    save_checkpoint(path, arrays, CFG)
    with np.load(path) as npz:
        assert npz.files == [*arrays, "meta.config"]
        assert json.loads(npz["meta.config"].tobytes()) == asdict(CFG)
        assert npz["enc.w"].tobytes() == arrays["enc.w"].tobytes()


def _npy(shape, descr="<f4", payload=b"") -> bytes:
    """An npy member whose header declares ``shape`` and ``descr`` over ``payload``."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue() + payload


def _config_member(text: bytes) -> tuple:
    """A ``meta.config`` member holding ``text`` as uint8."""
    return "meta.config.npy", _npy((len(text),), "|u1", text)


CONFIG_MEMBER = _config_member(json.dumps(asdict(CFG)).encode())


def _archive(members, meta=(CONFIG_MEMBER,)) -> bytes:
    """A zip of ``members`` and then ``meta``, every CRC correct."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        for name, data in [*members, *meta]:
            archive.writestr(name, data)
    return buf.getvalue()


@pytest.mark.parametrize("field, value", [("method", 8), ("method", 12), ("method", 14),
                                          ("method", 99), ("flags", 1)],
                         ids=["deflate", "bzip2", "lzma", "unknown method", "encrypted"])
def test_rejects_a_member_marked_compressed_or_encrypted(tmp_path, field, value):
    # zipfile then runs a decompressor over bytes that are no such stream (zlib, OSError,
    # LZMAError), finds no decompressor, or asks for a password
    raw = bytearray(_archive([("w.npy", b"\xff" * 70000)]))
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        central = archive.start_dir  # the first member's local header is at 0
    local_offset, central_offset = {"method": (8, 10), "flags": (6, 8)}[field]
    raw[local_offset] = raw[central + central_offset] = value
    path = tmp_path / "model.ckpt"
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)


def test_rejects_a_member_recorded_longer_than_the_file(tmp_path):
    raw = bytearray(_archive([("w.npy", _npy((1,), "<f4", bytes(4)))]))
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        central = archive.start_dir  # the first member's local header is at 0
    size = struct.pack("<I", len(raw) + 100)
    raw[18:22] = raw[22:26] = raw[central + 20:central + 24] = raw[central + 24:central + 28] = size
    path = tmp_path / "model.ckpt"
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)


def test_rejects_duplicate_name(tmp_path):
    path = tmp_path / "model.ckpt"
    with pytest.warns(UserWarning, match="Duplicate name"):
        raw = _archive([("w.npy", _npy((1,), "<f4", bytes(4)))] * 2)
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="duplicate member names"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(0, 2**31, 2**31), (2**21, 2**21, 2**22), (2**43,)],
                         ids=["zero times 2^62", "product wraps int64", "more than it holds"])
def test_rejects_member_with_impossible_dims(tmp_path, shape):
    path = tmp_path / "model.ckpt"
    path.write_bytes(_archive([("w.npy", _npy(shape))]))
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)


def _config_text(**changes) -> bytes:
    return json.dumps({**asdict(CFG), **changes}).encode()


@pytest.mark.parametrize("meta", [
    [],
    [("meta.config.npy", _npy((1,), "<f8", bytes(8)))],
    [_config_member(json.dumps({k: v for k, v in asdict(CFG).items() if k != "seed"}).encode())],
    [_config_member(_config_text(k="16"))],
    [_config_member(_config_text(lr=1))],
    [_config_member(_config_text(extra=1))],
    [_config_member(b"[1, 2]")],
    [_config_member(b"k = 16\n")],
    [_config_member(b"\xff\xfe")],
], ids=["missing config", "float config", "config missing a field", "str k", "int lr",
        "unknown field", "not an object", "not json", "not utf-8"])
def test_rejects_missing_or_malformed_header(tmp_path, meta):
    path = tmp_path / "model.ckpt"
    path.write_bytes(_archive([("w.npy", _npy((1,), "<f4", bytes(4)))], meta))
    with pytest.raises(CheckpointError, match="missing or malformed meta.config; train again"):
        load_checkpoint(path)


def test_rejects_a_stored_config_that_does_not_validate(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(_archive([], [_config_member(_config_text(k=3))]))
    with pytest.raises(CheckpointError, match=rf"^cannot read checkpoint {path}: k must be"):
        load_checkpoint(path)


_CONFIGS = st.builds(
    TrainConfig, lr=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    momentum=st.floats(0.0, 1.0, exclude_max=True),
    weight_decay=st.floats(min_value=0.0, allow_infinity=False),
    batch=st.integers(1, 64), epochs=st.integers(1, 10**4), k=st.integers(4, 512),
    band_width=st.integers(1, 8), seed=st.integers(),
    split_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    schedule=st.sampled_from(["cosine", "constant"]), size=st.integers(1, 64).map(lambda n: 8 * n),
    data=st.text(), n_samples=st.integers(2, 10**6), augment=st.booleans(),
    use_gsm=st.booleans(), use_cibm=st.booleans())


@given(cfg=_CONFIGS)
@example(cfg=replace(CFG, data="a#b = c\nd/é/データ"))
@example(cfg=replace(CFG, data="# only a comment", seed=-(2**70), lr=5e-324))
@settings(max_examples=100, deadline=None)
def test_any_config_round_trips(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "config.ckpt"
    save_checkpoint(path, _arrays(), cfg.validate())
    stored = load_checkpoint(path).config
    assert stored == cfg
    assert [type(v) for v in asdict(stored).values()] == [type(v) for v in asdict(cfg).values()]


@pytest.fixture(scope="module")
def valid_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(path, _arrays(), CFG)
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
