"""Synthetic confounded dataset, PGM persistence, augmentation, splits.

Each synthetic sample is a random ellipse lesion with a three-level latent
confounder c that both degrades the image (boundary blur proportional to c
plus c streak artifacts) and perturbs the annotation (mask eroded or
dilated by c - 1 pixels), so image and mask share a common cause.

Augmentation applies one of the square's eight symmetries (flips and
quarter turns).  These only permute pixels, so they keep the lesion area
that the confounder moves, and the boundary band of a transformed mask is
the transformed band of the mask.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion, gaussian_filter

from .rngs import derive_rng

LESION_INTENSITY = 0.7
BACKGROUND_INTENSITY = 0.2
NOISE_SIGMA = 0.05
BLUR_PER_LEVEL = 0.6
STREAK_INTENSITY = 0.25
N_CONFOUNDER_LEVELS = 3

IMG_SUFFIX = ".img.pgm"
MASK_SUFFIX = ".mask.pgm"


class PgmError(ValueError):
    """Unreadable or malformed PGM file."""


class DatasetError(ValueError):
    """Dataset-level failure (empty, unpaired, or inconsistent files)."""


@dataclass
class SampleRecord:
    """image in [0,1]; mask binary {0,1}; confounder_tag -1 when unknown."""

    image: np.ndarray
    mask: np.ndarray
    confounder_tag: int = -1
    stem: str = ""

    def __post_init__(self):
        if self.image.shape != self.mask.shape:
            raise DatasetError(
                f"image {self.image.shape} and mask {self.mask.shape} differ ({self.stem})")
        values = np.unique(self.mask)
        if not np.isin(values, (0, 1)).all():
            raise DatasetError(f"mask must be binary, got values {values} ({self.stem})")


# -- PGM (P5, 8-bit) ---------------------------------------------------------

def write_pgm(path, array: np.ndarray):
    """Write [0,1] floats or uint8 as a binary 8-bit PGM."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise PgmError(f"PGM needs a 2-d array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM into uint8; malformed headers raise PgmError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise PgmError(f"{path}: {exc}") from None
    if raw[:2] != b"P5":
        raise PgmError(f"{path}: not a binary PGM (magic {raw[:2]!r})")
    # header = magic + width + height + maxval tokens; `#` comments allowed
    pos, tokens = 2, []
    while len(tokens) < 3:
        if pos >= len(raw):
            raise PgmError(f"{path}: truncated header")
        ch = raw[pos:pos + 1]
        if ch == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                raise PgmError(f"{path}: unterminated header comment")
            continue
        if ch.isspace():
            pos += 1
            continue
        end = pos
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        tokens.append(raw[pos:end])
        pos = end
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PgmError(f"{path}: non-numeric header fields {tokens}") from None
    if maxval != 255:
        raise PgmError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    if w < 1 or h < 1:
        raise PgmError(f"{path}: bad dimensions {w}x{h}")
    pos += 1  # single whitespace byte after maxval
    pixels = raw[pos:pos + w * h]
    if len(pixels) != w * h:
        raise PgmError(f"{path}: expected {w * h} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


# -- synthetic generation ----------------------------------------------------

def _ellipse_mask(size, rng) -> np.ndarray:
    cy, cx = rng.uniform(0.35 * size, 0.65 * size, size=2)
    ay = rng.uniform(0.12 * size, 0.28 * size)
    ax = rng.uniform(0.12 * size, 0.28 * size)
    theta = rng.uniform(0.0, math.pi)
    yy, xx = np.mgrid[0:size, 0:size]
    dy, dx = yy - cy, xx - cx
    u = dx * math.cos(theta) + dy * math.sin(theta)
    v = -dx * math.sin(theta) + dy * math.cos(theta)
    return ((u / ax) ** 2 + (v / ay) ** 2 <= 1.0).astype(np.uint8)


def _boundary_points(lesion: np.ndarray) -> np.ndarray:
    outline = lesion.astype(bool) & ~binary_erosion(lesion.astype(bool))
    return np.argwhere(outline)


def _draw_streak(image: np.ndarray, y0, x0, angle, rng):
    """One bright line segment through (y0, x0), crossing the boundary."""
    size = image.shape[0]
    length = size // 2
    ts = np.arange(-length // 2, length // 2 + 1)
    ys = np.clip(np.rint(y0 + ts * math.sin(angle)).astype(int), 0, size - 1)
    xs = np.clip(np.rint(x0 + ts * math.cos(angle)).astype(int), 0, size - 1)
    image[ys, xs] += STREAK_INTENSITY * (1.0 if rng.random() < 0.5 else -1.0)


def _perturb_mask(lesion: np.ndarray, c: int) -> np.ndarray:
    if c == 1:
        return lesion.copy()
    op = binary_erosion if c == 0 else binary_dilation
    out = op(lesion.astype(bool), structure=np.ones((3, 3), dtype=bool))
    if not out.any():
        return lesion.copy()
    return out.astype(np.uint8)


def generate_synthetic(n: int, size: int, seed: int) -> list:
    """n SampleRecords; sample i depends only on (seed, i)."""
    if size % 8 or size < 8:
        raise DatasetError(f"size must be a positive multiple of 8, got {size}")
    records = []
    for i in range(n):
        rng = derive_rng(seed, "sample", i)
        lesion = _ellipse_mask(size, rng)
        c = int(rng.integers(0, N_CONFOUNDER_LEVELS))

        image = BACKGROUND_INTENSITY + (LESION_INTENSITY - BACKGROUND_INTENSITY) * lesion.astype(np.float64)
        if c > 0:
            image = gaussian_filter(image, sigma=BLUR_PER_LEVEL * c)
            points = _boundary_points(lesion)
            for _ in range(c):
                y0, x0 = points[rng.integers(0, len(points))]
                _draw_streak(image, float(y0), float(x0), rng.uniform(0.0, math.pi), rng)
        image = image + rng.normal(0.0, NOISE_SIGMA, size=image.shape)
        image = np.clip(image, 0.0, 1.0)

        records.append(SampleRecord(image=image, mask=_perturb_mask(lesion, c),
                                    confounder_tag=c, stem=f"sample{i:04d}"))
    return records


# -- directory persistence ---------------------------------------------------

def export_dataset(records, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for rec in records:
        write_pgm(outdir / f"{rec.stem}{IMG_SUFFIX}", rec.image)
        write_pgm(outdir / f"{rec.stem}{MASK_SUFFIX}", rec.mask * np.uint8(255))


def ingest(directory) -> tuple[list, list]:
    """Load paired `<stem>.img.pgm`/`<stem>.mask.pgm` files.

    Returns (records, errors); each error is a `(path, message)` pair and
    bad pairs are skipped rather than aborting the scan.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory} is not a directory")
    records, errors = [], []
    img_paths = sorted(directory.glob(f"*{IMG_SUFFIX}"))
    claimed_masks = set()
    for img_path in img_paths:
        stem = img_path.name[:-len(IMG_SUFFIX)]
        mask_path = directory / f"{stem}{MASK_SUFFIX}"
        claimed_masks.add(mask_path.name)
        if not mask_path.exists():
            errors.append((str(img_path), "missing mask pair"))
            continue
        try:
            img_raw = read_pgm(img_path)
            mask_raw = read_pgm(mask_path)
        except PgmError as exc:
            errors.append((str(img_path), str(exc)))
            continue
        if img_raw.shape != mask_raw.shape:
            errors.append((str(img_path),
                           f"size mismatch image {img_raw.shape} vs mask {mask_raw.shape}"))
            continue
        records.append(SampleRecord(image=img_raw.astype(np.float64) / 255.0,
                                    mask=(mask_raw >= 128).astype(np.uint8),
                                    confounder_tag=-1, stem=stem))
    for mask_path in sorted(directory.glob(f"*{MASK_SUFFIX}")):
        if mask_path.name not in claimed_masks:
            errors.append((str(mask_path), "missing image pair"))
    return records, errors


# -- augmentation and splitting ----------------------------------------------

def square_symmetry(planes: np.ndarray, k: int) -> np.ndarray:
    """The k-th (0-7) symmetry of the square on the last two axes: k % 4
    quarter turns, then a transpose when k >= 4."""
    out = np.rot90(planes, k % 4, axes=(-2, -1))
    return out.swapaxes(-2, -1) if k >= 4 else out


def augment_batch(arrays, rng) -> list:
    """One symmetry of the square per sample, drawn from ``rng`` and applied
    alike to every (B, ..., H, W) array of ``arrays``."""
    ks = rng.integers(0, 8, size=len(arrays[0]))
    return [np.stack([square_symmetry(a[i], k) for i, k in enumerate(ks)]) for a in arrays]


def split_dataset(records, split_fraction: float, seed: int) -> tuple[list, list]:
    """Disjoint, covering train/test split; a function of seed only."""
    n = len(records)
    if n < 2:
        raise DatasetError(f"need at least 2 samples to split, got {n}")
    order = derive_rng(seed, "split").permutation(n)
    n_train = min(max(int(round(split_fraction * n)), 1), n - 1)
    train = [records[i] for i in order[:n_train]]
    test = [records[i] for i in order[n_train:]]
    return train, test


def batches(indices, batch_size: int):
    """Chunk an index sequence; the tail keeps its remainder batch."""
    for start in range(0, len(indices), batch_size):
        yield indices[start:start + batch_size]
