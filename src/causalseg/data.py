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

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import box_filter
from .rngs import derive_rng

LESION_INTENSITY = 0.7
BACKGROUND_INTENSITY = 0.2
NOISE_SIGMA = 0.05
BLUR_PER_LEVEL = 0.6
STREAK_INTENSITY = 0.25
N_CONFOUNDER_LEVELS = 3

IMG_SUFFIX = ".img.pgm"
MASK_SUFFIX = ".mask.pgm"
TAGS_FILE = "tags.csv"  # `stem,c` header, then one row per record with a confounder tag


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
        if not ((self.mask == 0) | (self.mask == 1)).all():
            raise DatasetError(f"mask must be binary, got values {np.unique(self.mask)} ({self.stem})")


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

GENERATE_CHUNK = 64  # samples per batched pass of generate_synthetic; bounds its temporaries


def _gaussian_blur(planes: np.ndarray, sigma: float) -> np.ndarray:
    """Each (H,W) plane of a float64 (N,H,W) stack blurred by a Gaussian of
    ``sigma``, byte for byte as ``scipy.ndimage.gaussian_filter(planes, (0,
    sigma, sigma))``: its kernel to 4 sigma, reflect padding, and its sum
    order for a symmetric kernel, x_0 w_0 + sum over j = r..1 of
    (x_-j + x_+j) w_j, along axis 1 and then axis 2."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    for axis in (1, 2):
        n = planes.shape[axis]
        pad = [(0, 0)] * 3
        pad[axis] = (r, r)
        padded = np.pad(planes, pad, mode="symmetric")
        taps = [padded[(slice(None),) * axis + (slice(k, k + n),)] for k in range(2 * r + 1)]
        out = taps[r] * w[r]
        for j in range(r, 0, -1):
            out += (taps[r - j] + taps[r + j]) * w[r - j]
        planes = out
    return planes


def _draw_streaks(images: np.ndarray, streaks):
    """Bright segments through (image, y0, x0, sin, cos, sign) rows, each its own
    fancy-index add: a pixel covered twice by one segment gains once, by two twice."""
    size = images.shape[-1]
    length = size // 2
    ts = np.arange(-length // 2, length // 2 + 1)
    j, y0, x0, sin, cos, sign = (np.array(col) for col in zip(*streaks))
    ys = np.clip(np.rint(y0[:, None] + ts * sin[:, None]).astype(int), 0, size - 1)
    xs = np.clip(np.rint(x0[:, None] + ts * cos[:, None]).astype(int), 0, size - 1)
    for image, y, x, s in zip(j, ys, xs, sign):
        images[image, y, x] += STREAK_INTENSITY * s


def _generate_chunk(start, m, size, seed):
    # each stream's draws in a lone sample's order: ellipse, level, streaks, noise
    rngs = [derive_rng(seed, "sample", i) for i in range(start, start + m)]
    draws = []
    for rng in rngs:
        cy, cx = rng.uniform(0.35 * size, 0.65 * size, size=2)
        ay, ax = rng.uniform(0.12 * size, 0.28 * size, size=2)
        theta = rng.uniform(0.0, math.pi)
        draws.append((cy, cx, ay, ax, math.cos(theta), math.sin(theta),
                      rng.integers(0, N_CONFOUNDER_LEVELS)))
    cy, cx, ay, ax, cos, sin, levels = (np.array(col)[:, None, None] for col in zip(*draws))
    levels = levels.ravel()
    yy, xx = np.ogrid[0:size, 0:size]
    dy, dx = yy - cy, xx - cx
    u = dx * cos + dy * sin
    v = -dx * sin + dy * cos
    inside = (u / ax) ** 2 + (v / ay) ** 2 <= 1.0
    # erosion by the cross: a pixel and its four neighbours are all inside
    core = box_filter(inside, 1, np.logical_and, axes=(1,)) & box_filter(inside, 1, np.logical_and, axes=(2,))
    outlines = inside & ~core
    boundary = np.split(np.argwhere(outlines)[:, 1:], np.cumsum(outlines.sum(axis=(1, 2)))[:-1])
    streaks, noise = [], np.empty((m, size, size))
    for j, (rng, points) in enumerate(zip(rngs, boundary)):
        for _ in range(levels[j]):
            y0, x0 = points[rng.integers(0, len(points))]
            angle = rng.uniform(0.0, math.pi)
            streaks.append((j, y0, x0, math.sin(angle), math.cos(angle),
                            1.0 if rng.random() < 0.5 else -1.0))
        noise[j] = rng.normal(0.0, NOISE_SIGMA, size=(size, size))

    images = BACKGROUND_INTENSITY + (LESION_INTENSITY - BACKGROUND_INTENSITY) * inside.astype(np.float64)
    for c in range(1, N_CONFOUNDER_LEVELS):
        blurred, sigma = levels == c, BLUR_PER_LEVEL * c
        if blurred.any():
            images[blurred] = _gaussian_blur(images[blurred], sigma)
    if streaks:
        _draw_streaks(images, streaks)
    images += noise
    np.clip(images, 0.0, 1.0, out=images)

    # the annotation: eroded at c=0, dilated at c=2, the lesion where that empties it
    masks = inside.astype(np.uint8)
    for c, op in ((0, np.logical_and), (2, np.logical_or)):
        rows = np.flatnonzero(levels == c)
        if len(rows):
            out = box_filter(inside[rows], 1, op)
            kept = out.any(axis=(1, 2))
            masks[rows[kept]] = out[kept]
    return [SampleRecord(image=images[j], mask=masks[j], confounder_tag=int(levels[j]),
                         stem=f"sample{start + j:04d}") for j in range(m)]


def generate_synthetic(n: int, size: int, seed: int) -> list:
    """n SampleRecords; sample i depends only on (seed, i).  They are made
    GENERATE_CHUNK at a time, byte for byte as if each were made alone."""
    if size % 8 or size < 8:
        raise DatasetError(f"size must be a positive multiple of 8, got {size}")
    return [rec for start in range(0, n, GENERATE_CHUNK)
            for rec in _generate_chunk(start, min(GENERATE_CHUNK, n - start), size, seed)]


# -- directory persistence ---------------------------------------------------

def export_dataset(records, outdir):
    outdir = Path(outdir)  # must hold no dataset yet: ingest would mix the two silently
    if any(p.exists() for p in [*outdir.glob(f"*{IMG_SUFFIX}"), *outdir.glob(f"*{MASK_SUFFIX}"),
                                outdir / TAGS_FILE]):
        raise DatasetError(f"{outdir} already holds a dataset; export into a new directory")
    outdir.mkdir(parents=True, exist_ok=True)
    for rec in records:
        write_pgm(outdir / f"{rec.stem}{IMG_SUFFIX}", rec.image)
        write_pgm(outdir / f"{rec.stem}{MASK_SUFFIX}", rec.mask * np.uint8(255))
    with open(outdir / TAGS_FILE, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("stem", "c")] + [(rec.stem, rec.confounder_tag)
                                                     for rec in records if rec.confounder_tag >= 0])


def _read_tags(path) -> tuple[dict, list]:
    """stem -> confounder tag from a TAGS_FILE, if there is one, and its bad lines as errors."""
    try:
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    except FileNotFoundError:
        return {}, []
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return {}, [(str(path), f"{TAGS_FILE}: {exc}")]
    tags, errors = {}, []
    for line, row in enumerate(rows, start=1):
        if len(row) == 2 and row[1] in ("0", "1", "2"):
            tags[row[0]] = int(row[1])
        elif (line, row) != (1, ["stem", "c"]):
            errors.append((str(path), f"{TAGS_FILE} line {line}: expected stem,c with c in 0, 1 "
                                      f"or 2, got {','.join(row)!r}"))
    return tags, errors


def ingest(directory) -> tuple[list, list]:
    """Load paired `<stem>.img.pgm`/`<stem>.mask.pgm` files.

    Returns (records, errors); each error is a `(path, message)` pair and
    bad pairs are skipped rather than aborting the scan.  Confounder tags
    come from TAGS_FILE when it exists; a record it does not list keeps -1.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory} is not a directory")
    tags, errors = _read_tags(directory / TAGS_FILE)
    records = []
    claimed_masks = set()
    for img_path in sorted(directory.glob(f"*{IMG_SUFFIX}")):
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
                                    confounder_tag=tags.get(stem, -1), stem=stem))
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
