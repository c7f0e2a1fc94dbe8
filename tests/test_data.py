"""Synthetic generation, PGM persistence, ingestion, augmentation, splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalseg.data import (
    BACKGROUND_INTENSITY,
    IMG_SUFFIX,
    LESION_INTENSITY,
    MASK_SUFFIX,
    DatasetError,
    PgmError,
    SampleRecord,
    augment_batch,
    batches,
    export_dataset,
    generate_synthetic,
    ingest,
    read_pgm,
    split_dataset,
    square_symmetry,
    write_pgm,
)
from causalseg.boundary import boundary_band, sobel_magnitude
from causalseg.rngs import derive_rng


# -- records -----------------------------------------------------------------

def test_record_rejects_shape_mismatch():
    with pytest.raises(DatasetError, match="differ"):
        SampleRecord(image=np.zeros((8, 8)), mask=np.zeros((8, 9), dtype=np.uint8))


def test_record_rejects_nonbinary_mask():
    with pytest.raises(DatasetError, match="binary"):
        SampleRecord(image=np.zeros((8, 8)), mask=np.full((8, 8), 3, dtype=np.uint8))


# -- synthetic generation ----------------------------------------------------

def test_generation_is_deterministic():
    a = generate_synthetic(6, 32, seed=7)
    b = generate_synthetic(6, 32, seed=7)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.image, rb.image)
        np.testing.assert_array_equal(ra.mask, rb.mask)
        assert ra.confounder_tag == rb.confounder_tag


def test_generation_prefix_stable():
    # sample i depends only on (seed, i), so prefixes agree across n
    short = generate_synthetic(3, 32, seed=5)
    long = generate_synthetic(10, 32, seed=5)
    for rs, rl in zip(short, long):
        np.testing.assert_array_equal(rs.image, rl.image)
        np.testing.assert_array_equal(rs.mask, rl.mask)


def test_generation_basic_contract():
    records = generate_synthetic(16, 32, seed=0)
    assert len(records) == 16
    tags = {r.confounder_tag for r in records}
    assert tags <= {0, 1, 2}
    assert len(tags) > 1
    for r in records:
        assert r.image.shape == (32, 32) and r.mask.shape == (32, 32)
        assert 0.0 <= r.image.min() and r.image.max() <= 1.0
        assert set(np.unique(r.mask)) <= {0, 1}
        assert r.mask.sum() > 0


def test_generation_rejects_bad_size():
    with pytest.raises(DatasetError, match="multiple of 8"):
        generate_synthetic(2, 30, seed=0)


def _mean_band_gradient(records):
    """Mean Sobel magnitude over the mask boundary band, per record."""
    vals = []
    for r in records:
        band = boundary_band(r.mask.astype(np.float64), width=1)
        if not band.any():
            continue
        grad = sobel_magnitude(r.image)
        vals.append(float(grad[band].mean()))
    return float(np.mean(vals))


def test_confounder_blurs_boundaries():
    # higher confounder level -> blurrier lesion edge -> weaker gradient
    records = generate_synthetic(120, 32, seed=3)
    by_level = {c: [r for r in records if r.confounder_tag == c] for c in (0, 2)}
    assert all(len(v) >= 10 for v in by_level.values())
    sharp = _mean_band_gradient(by_level[0])
    blurred = _mean_band_gradient(by_level[2])
    assert sharp > blurred * 1.1


def test_confounder_perturbs_masks():
    # c=0 erodes, c=2 dilates: level-2 masks are larger on average
    records = generate_synthetic(120, 32, seed=3)
    area = {c: np.mean([r.mask.sum() for r in records if r.confounder_tag == c])
            for c in (0, 2)}
    assert area[2] > area[0]


def test_intensity_levels_visible():
    records = generate_synthetic(20, 32, seed=1)
    clean = [r for r in records if r.confounder_tag == 0]
    assert clean
    r = clean[0]
    inside = r.image[r.mask == 1].mean()
    outside = r.image[r.mask == 0].mean()
    assert abs(inside - LESION_INTENSITY) < 0.1
    assert abs(outside - BACKGROUND_INTENSITY) < 0.1


# -- PGM round trips ---------------------------------------------------------

def test_pgm_round_trip_quantization(tmp_path):
    rng = derive_rng(0, "pgm")
    arr = rng.random((17, 23))
    path = tmp_path / "x.pgm"
    write_pgm(path, arr)
    back = read_pgm(path).astype(np.float64) / 255.0
    assert back.shape == arr.shape
    assert np.abs(back - arr).max() <= 0.5 / 255.0 + 1e-12


def test_pgm_uint8_exact(tmp_path):
    arr = np.arange(256, dtype=np.uint8).reshape(16, 16)
    path = tmp_path / "x.pgm"
    write_pgm(path, arr)
    np.testing.assert_array_equal(read_pgm(path), arr)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 2\n255\n\x00\x01\x02\x03")
    np.testing.assert_array_equal(read_pgm(path), [[0, 1], [2, 3]])


@pytest.mark.parametrize("raw, match", [
    (b"P2\n2 2\n255\n0 1 2 3", "not a binary PGM"),
    (b"P5\n2 2\n65535\n" + b"\x00" * 8, "maxval"),
    (b"P5\n2 2\n255\n\x00\x01", "pixel bytes"),
    (b"P5\n2", "truncated header"),
    (b"P5\nx 2\n255\n\x00\x01\x02\x03", "non-numeric"),
    (b"P5\n0 2\n255\n", "bad dimensions"),
])
def test_pgm_malformed(tmp_path, raw, match):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(PgmError, match=match):
        read_pgm(path)


def test_pgm_write_rejects_non_2d(tmp_path):
    with pytest.raises(PgmError, match="2-d"):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


# -- export / ingest ---------------------------------------------------------

def test_export_ingest_round_trip(tmp_path):
    records = generate_synthetic(5, 32, seed=2)
    export_dataset(records, tmp_path)
    back, errors = ingest(tmp_path)
    assert errors == []
    assert len(back) == len(records)
    by_stem = {r.stem: r for r in back}
    for orig in records:
        got = by_stem[orig.stem]
        np.testing.assert_array_equal(got.mask, orig.mask)
        assert np.abs(got.image - orig.image).max() <= 0.5 / 255.0 + 1e-12
        assert got.confounder_tag == -1


def test_ingest_reports_unpaired_and_corrupt(tmp_path):
    records = generate_synthetic(3, 32, seed=2)
    export_dataset(records, tmp_path)
    (tmp_path / f"orphan{IMG_SUFFIX}").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
    (tmp_path / f"widow{MASK_SUFFIX}").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
    (tmp_path / f"sample0000{IMG_SUFFIX}").write_bytes(b"P5\n2 2\n255\n\x00")

    back, errors = ingest(tmp_path)
    assert len(back) == 2  # two intact pairs survive
    messages = {path.rsplit("/", 1)[-1]: msg for path, msg in errors}
    assert "missing mask pair" in messages[f"orphan{IMG_SUFFIX}"]
    assert "missing image pair" in messages[f"widow{MASK_SUFFIX}"]
    assert "pixel bytes" in messages[f"sample0000{IMG_SUFFIX}"]


def test_ingest_size_mismatch(tmp_path):
    write_pgm(tmp_path / f"a{IMG_SUFFIX}", np.zeros((8, 8)))
    write_pgm(tmp_path / f"a{MASK_SUFFIX}", np.zeros((8, 9)))
    back, errors = ingest(tmp_path)
    assert back == []
    assert len(errors) == 1 and "size mismatch" in errors[0][1]


def test_ingest_requires_directory(tmp_path):
    with pytest.raises(DatasetError, match="not a directory"):
        ingest(tmp_path / "nope")


def test_ingest_binarizes_gray_masks(tmp_path):
    write_pgm(tmp_path / f"a{IMG_SUFFIX}", np.zeros((4, 4)))
    gray = np.array([[0, 100], [128, 255]], dtype=np.uint8)
    write_pgm(tmp_path / f"a{MASK_SUFFIX}", np.kron(gray, np.ones((2, 2), dtype=np.uint8)))
    back, errors = ingest(tmp_path)
    assert errors == []
    np.testing.assert_array_equal(
        back[0].mask, np.kron([[0, 0], [1, 1]], np.ones((2, 2), dtype=int)))


# -- augmentation ------------------------------------------------------------

def _planes(n=4, size=32, seed=4):
    records = generate_synthetic(n, size, seed=seed)
    return [np.stack([r.image for r in records])[:, None],
            np.stack([r.mask for r in records])[:, None]]


def test_square_symmetry_gives_the_eight_distinct_symmetries():
    tile = np.arange(16.0).reshape(4, 4)
    images = {square_symmetry(tile, k).tobytes() for k in range(8)}
    assert len(images) == 8
    np.testing.assert_array_equal(square_symmetry(tile, 1), np.rot90(tile))
    np.testing.assert_array_equal(square_symmetry(tile, 4), tile.T)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_augment_keeps_pairing(aug_seed):
    images, masks = _planes()
    img, msk = augment_batch([images, masks], derive_rng(aug_seed, "aug"))
    assert img.shape == images.shape and msk.shape == masks.shape
    # each sample's planes moved by one symmetry, the same for both
    for i in range(len(images)):
        matches = [k for k in range(8) if np.array_equal(square_symmetry(masks[i], k), msk[i])
                   and np.array_equal(square_symmetry(images[i], k), img[i])]
        assert matches


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_augment_is_a_pixel_permutation(aug_seed):
    images, masks = _planes()
    img, msk = augment_batch([images, masks], derive_rng(aug_seed, "aug"))
    for before, after in ((images, img), (masks, msk)):
        np.testing.assert_array_equal(np.sort(after.reshape(len(after), -1), axis=1),
                                      np.sort(before.reshape(len(before), -1), axis=1))
    # so the lesion area, which the confounder moves, is kept
    np.testing.assert_array_equal(msk.sum(axis=(1, 2, 3)), masks.sum(axis=(1, 2, 3)))


def test_augment_is_rng_deterministic():
    planes = _planes()
    a = augment_batch(planes, derive_rng(9, "aug"))
    b = augment_batch(planes, derive_rng(9, "aug"))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


# -- splitting and batching --------------------------------------------------

def test_split_disjoint_and_covering():
    records = generate_synthetic(10, 32, seed=0)
    train, test = split_dataset(records, 0.7, seed=0)
    assert len(train) == 7 and len(test) == 3
    stems = sorted(r.stem for r in train + test)
    assert stems == sorted(r.stem for r in records)
    assert not {r.stem for r in train} & {r.stem for r in test}


def test_split_never_empties_either_side():
    records = generate_synthetic(3, 32, seed=0)
    train, test = split_dataset(records, 0.01, seed=0)
    assert len(train) == 1 and len(test) == 2
    train, test = split_dataset(records, 0.99, seed=0)
    assert len(train) == 2 and len(test) == 1


def test_split_depends_only_on_seed():
    records = generate_synthetic(8, 32, seed=0)
    a = split_dataset(records, 0.5, seed=1)
    b = split_dataset(records, 0.5, seed=1)
    c = split_dataset(records, 0.5, seed=2)
    assert [r.stem for r in a[0]] == [r.stem for r in b[0]]
    assert [r.stem for r in a[0]] != [r.stem for r in c[0]]


def test_split_needs_two_records():
    with pytest.raises(DatasetError, match="at least 2"):
        split_dataset(generate_synthetic(1, 32, seed=0), 0.5, seed=0)


def test_batches_cover_with_tail():
    chunks = list(batches(list(range(10)), 4))
    assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
