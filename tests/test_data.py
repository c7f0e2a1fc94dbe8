"""Synthetic generation, PGM persistence, ingestion, augmentation, splits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import binary_dilation, binary_erosion, gaussian_filter

from causalseg.config import TrainConfig
from causalseg.data import (
    BACKGROUND_INTENSITY,
    BLUR_PER_LEVEL,
    GENERATE_CHUNK,
    IMG_SUFFIX,
    LESION_INTENSITY,
    MASK_SUFFIX,
    N_CONFOUNDER_LEVELS,
    NOISE_SIGMA,
    STREAK_INTENSITY,
    TAGS_FILE,
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
from causalseg.train import load_dataset


# -- records -----------------------------------------------------------------

def test_record_rejects_shape_mismatch():
    with pytest.raises(DatasetError, match="differ"):
        SampleRecord(image=np.zeros((8, 8)), mask=np.zeros((8, 9), dtype=np.uint8))


def test_record_rejects_nonbinary_mask():
    with pytest.raises(DatasetError, match="binary"):
        SampleRecord(image=np.zeros((8, 8)), mask=np.full((8, 8), 3, dtype=np.uint8))


_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    hnp.arrays(np.uint8, _SHAPES, elements=st.integers(0, 3)),
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(-2, 2)),
    hnp.arrays(np.float64, _SHAPES, elements=st.sampled_from(
        [0.0, -0.0, 1.0, 0.5, 1.0 + 2 ** -52, -1.0, 2.0, math.inf, math.nan])),
    hnp.arrays(np.bool_, _SHAPES),
))
def test_record_mask_check_accepts_exactly_the_binary_masks(mask):
    # the one-pass check agrees with its defining form, np.unique then np.isin
    values = np.unique(mask)
    if np.isin(values, (0, 1)).all():
        SampleRecord(image=np.zeros(mask.shape), mask=mask, stem="s")
    else:
        with pytest.raises(DatasetError, match="binary") as exc:
            SampleRecord(image=np.zeros(mask.shape), mask=mask, stem="s")
        assert str(exc.value) == f"mask must be binary, got values {values} (s)"


# -- synthetic generation ----------------------------------------------------

def _reference_sample(i, size, seed):
    """Sample i made alone, in the generator's defining per-sample form."""
    rng = derive_rng(seed, "sample", i)
    cy, cx = rng.uniform(0.35 * size, 0.65 * size, size=2)
    ay = rng.uniform(0.12 * size, 0.28 * size)
    ax = rng.uniform(0.12 * size, 0.28 * size)
    theta = rng.uniform(0.0, math.pi)
    yy, xx = np.mgrid[0:size, 0:size]
    dy, dx = yy - cy, xx - cx
    u = dx * math.cos(theta) + dy * math.sin(theta)
    v = -dx * math.sin(theta) + dy * math.cos(theta)
    lesion = ((u / ax) ** 2 + (v / ay) ** 2 <= 1.0).astype(np.uint8)
    c = int(rng.integers(0, N_CONFOUNDER_LEVELS))

    image = BACKGROUND_INTENSITY + (LESION_INTENSITY - BACKGROUND_INTENSITY) * lesion.astype(np.float64)
    if c > 0:
        image = gaussian_filter(image, sigma=BLUR_PER_LEVEL * c)
        points = np.argwhere(lesion.astype(bool) & ~binary_erosion(lesion.astype(bool)))
        for _ in range(c):
            y0, x0 = points[rng.integers(0, len(points))]
            angle = rng.uniform(0.0, math.pi)
            length = size // 2
            ts = np.arange(-length // 2, length // 2 + 1)
            ys = np.clip(np.rint(float(y0) + ts * math.sin(angle)).astype(int), 0, size - 1)
            xs = np.clip(np.rint(float(x0) + ts * math.cos(angle)).astype(int), 0, size - 1)
            image[ys, xs] += STREAK_INTENSITY * (1.0 if rng.random() < 0.5 else -1.0)
    image = np.clip(image + rng.normal(0.0, NOISE_SIGMA, size=image.shape), 0.0, 1.0)

    mask = lesion.copy()
    if c != 1:
        op = binary_erosion if c == 0 else binary_dilation
        out = op(lesion.astype(bool), structure=np.ones((3, 3), dtype=bool))
        if out.any():
            mask = out.astype(np.uint8)
    return SampleRecord(image=image, mask=mask, confounder_tag=c, stem=f"sample{i:04d}")


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.stem, g.confounder_tag) == (w.stem, w.confounder_tag)
        for a, b in ((g.image, w.image), (g.mask, w.mask)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), g.stem
            assert a.tobytes() == b.tobytes(), g.stem


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("size", [8, 16, 32, 64])
def test_generation_is_byte_identical_to_per_sample_reference(size, seed):
    reference = [_reference_sample(i, size, seed) for i in range(256)]
    assert {r.confounder_tag for r in reference} == {0, 1, 2}
    for n in (0, 1, GENERATE_CHUNK - 1, GENERATE_CHUNK, GENERATE_CHUNK + 3, 256):
        _assert_same_records(generate_synthetic(n, size, seed), reference[:n])


def test_generation_prefix_stable_across_chunk_boundary():
    long = generate_synthetic(2 * GENERATE_CHUNK + 5, 16, seed=9)
    for n in (GENERATE_CHUNK - 1, GENERATE_CHUNK + 1, GENERATE_CHUNK + 3):
        _assert_same_records(generate_synthetic(n, 16, seed=9), long[:n])


def test_generation_of_zero_samples_is_empty():
    assert generate_synthetic(0, 32, seed=0) == []


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
        assert got.confounder_tag == orig.confounder_tag


def test_ingest_without_tags_file_leaves_tags_unknown(tmp_path):
    export_dataset(generate_synthetic(4, 16, seed=2), tmp_path)
    (tmp_path / TAGS_FILE).unlink()
    back, errors = ingest(tmp_path)
    assert errors == [] and len(back) == 4
    assert {r.confounder_tag for r in back} == {-1}


def test_tags_file_lists_only_tagged_records(tmp_path):
    records = generate_synthetic(3, 16, seed=2)
    records[1].confounder_tag = -1
    export_dataset(records, tmp_path)
    assert (tmp_path / TAGS_FILE).read_text().splitlines() == [
        "stem,c", f"sample0000,{records[0].confounder_tag}", f"sample0002,{records[2].confounder_tag}"]
    back, errors = ingest(tmp_path)
    assert errors == []
    assert [r.confounder_tag for r in back] == [r.confounder_tag for r in records]


def test_ingest_reports_malformed_tag_rows(tmp_path):
    export_dataset(generate_synthetic(4, 16, seed=2), tmp_path)
    (tmp_path / TAGS_FILE).write_text(
        "stem,c\nsample0000,2\nsample0001,3\nsample0002\nsample0003,x\n")
    back, errors = ingest(tmp_path)
    assert [r.confounder_tag for r in back] == [2, -1, -1, -1]
    assert [path.rsplit("/", 1)[-1] for path, _ in errors] == [TAGS_FILE] * 3
    assert [msg.split(":")[0] for _, msg in errors] == [
        f"{TAGS_FILE} line {n}" for n in (3, 4, 5)]
    assert "got 'sample0001,3'" in errors[0][1]
    # so training on the directory stops with a named error
    cfg = TrainConfig(data=str(tmp_path), size=16, n_samples=4)
    with pytest.raises(DatasetError, match=f"{TAGS_FILE} line 3"):
        load_dataset(cfg)


@pytest.mark.parametrize("text, line", [("name,c\nsample0000,1\n", 1), ("stem,c\n\n", 2),
                                         ("stem,c\nsample0000,1,0\n", 2),
                                         ("stem,c\nstem,c\n", 2)])
def test_ingest_rejects_bad_tag_lines(tmp_path, text, line):
    export_dataset(generate_synthetic(1, 16, seed=2), tmp_path)
    (tmp_path / TAGS_FILE).write_text(text)
    _, errors = ingest(tmp_path)
    assert len(errors) == 1 and errors[0][1].startswith(f"{TAGS_FILE} line {line}:")


def test_ingest_reports_unreadable_tags_file(tmp_path):
    export_dataset(generate_synthetic(1, 16, seed=2), tmp_path)
    (tmp_path / TAGS_FILE).write_bytes(b"stem,c\n\xff\xfe,1\n")
    back, errors = ingest(tmp_path)
    assert len(back) == 1 and back[0].confounder_tag == -1
    assert len(errors) == 1 and errors[0][1].startswith(f"{TAGS_FILE}:")


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
