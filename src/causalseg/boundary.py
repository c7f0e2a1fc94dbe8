"""Sobel boundary bands and the uncertainty-weighted boundary loss.

The band is the Chebyshev dilation (radius w) of the ground-truth mask's
Sobel edge pixels, where either float32 Sobel response is nonzero;
``boundary_band`` returns the boolean band of every (H,W) plane of a
(..., H, W) mask stack.  The loss and the uncertainty map
work on (B,1,H,W) batches: on band pixels the loss is a cross-entropy
weighted by (1 + V_i), where V_i is the squared deviation of each
prediction from its image's band-mean prediction.  V is differentiable
through the predictions.
"""

import numpy as np
from scipy.ndimage import maximum_filter

from . import tensor as T
from .losses import cross_entropy

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


def _correlate3(masks: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # valid-mode correlation per (H,W) plane; the 1-px output border (where
    # no full 3x3 window fits) is defined as zero so constant masks have no edges
    out = np.zeros_like(masks)
    win = np.lib.stride_tricks.sliding_window_view(masks, (3, 3), axis=(-2, -1))
    np.einsum("...ijkl,kl->...ij", win, kernel.astype(masks.dtype), out=out[..., 1:-1, 1:-1])
    return out


def _planes(masks, dtype, name: str) -> np.ndarray:
    m = np.asarray(masks, dtype=dtype)
    if m.ndim < 2 or m.shape[-2] < 3 or m.shape[-1] < 3:
        raise T.ShapeError(f"{name} needs masks of at least 3x3, got {m.shape}")
    return m


def sobel_magnitude(masks: np.ndarray) -> np.ndarray:
    """sqrt(Gx^2 + Gy^2) of each (H,W) plane, with the standard 3x3 Sobel kernels.

    The response is computed where the full window fits and is zero on the
    image border, so uniform masks produce an identically zero map.
    """
    m = _planes(masks, np.float64, "sobel_magnitude")
    # in place: a whole split's float64 temporaries would set a fit's peak memory
    gx, gy = _correlate3(m, SOBEL_X), _correlate3(m, SOBEL_Y)
    return np.sqrt(np.add(np.square(gx, out=gx), np.square(gy, out=gy), out=gx), out=gx)


def boundary_band(masks: np.ndarray, width: int = 2) -> np.ndarray:
    """Boolean (..., H, W) bands of a binary (..., H, W) mask stack: each
    plane's Sobel edge set (``sobel_magnitude > 0``) dilated by a Chebyshev
    radius ``width``.  A uniform mask (no edges) yields an empty band.
    """
    if width < 1:
        raise ValueError(f"band width must be >= 1, got {width}")
    # a binary mask's responses are small integers, exact in float32; an edge
    # is where either is nonzero, so no magnitude is formed
    m = _planes(masks, np.float32, "boundary_band")
    edges = _correlate3(m, SOBEL_X) != 0
    edges |= _correlate3(m, SOBEL_Y) != 0
    size = 2 * width + 1
    return maximum_filter(edges, size=(1,) * (edges.ndim - 2) + (size, size), mode="constant", cval=0)


def _band_sizes(band: np.ndarray, dtype) -> T.Tensor:
    # per-image band pixel counts (B,1,1,1); an empty band counts as 1 so
    # its all-zero sums divide to 0
    return T.Tensor(np.maximum(band.sum(axis=(1, 2, 3), keepdims=True), 1).astype(dtype))


def uncertainty_map(pred: T.Tensor, band: np.ndarray) -> T.Tensor:
    """V_i = (p_i - P)^2 on band pixels of a (B,1,H,W) batch, zero elsewhere.

    ``band`` is the (B,1,H,W) 0/1 membership; P is each image's band-mean
    prediction.
    """
    dtype = pred.data.dtype
    band_t = T.Tensor(band.astype(dtype))
    p_mean = T.div(T.tsum(T.mul(pred, band_t), axis=(1, 2, 3), keepdims=True),
                   _band_sizes(band, dtype))
    dev = T.sub(pred, p_mean)
    return T.mul(T.mul(dev, dev), band_t)


def usd_loss(pred: T.Tensor, truth: np.ndarray, band: np.ndarray, v: T.Tensor) -> T.Tensor:
    """Batch mean of each image's (1/N) sum over its band of (1+V_i) CE(p_i, y_i).

    pred, truth, band and v are (B,1,H,W); an image with an empty band
    contributes 0.
    """
    dtype = pred.data.dtype
    one = T.Tensor(np.asarray(1.0, dtype=dtype))
    ce = cross_entropy(pred, T.Tensor(truth.astype(dtype)))
    weighted = T.mul(T.mul(T.add(one, v), ce), T.Tensor(band.astype(dtype)))
    per_image = T.div(T.tsum(weighted, axis=(1, 2, 3), keepdims=True), _band_sizes(band, dtype))
    return T.tmean(per_image)


def usd_batch(pred: T.Tensor, masks: np.ndarray, width: int = 2,
              band: np.ndarray | None = None) -> T.Tensor:
    """USD loss of a (B,1,H,W) batch against its masks.

    ``band`` is the masks' ``boundary_band`` when the caller already has it;
    without it the bands are computed here.
    """
    if band is None:
        band = boundary_band(masks, width)
    return usd_loss(pred, masks, band, uncertainty_map(pred, band))
