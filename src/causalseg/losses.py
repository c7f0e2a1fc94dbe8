"""Segmentation losses and evaluation metrics.

Metrics are batch-first: per image of an (N, ...) batch, pixel-level
Dice/IoU/FDR at threshold 0.5 plus the Mann-Whitney AUC with ties counting
one half; entropy maps give per-pixel binary entropy of the predicted
foreground probability.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T

PROB_EPS = 1e-7
DICE_SMOOTH = 1e-6


@dataclass
class ConfusionCounts:
    """Per-image pixel counts, each an (N,) integer array."""

    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray


@dataclass
class Metrics:
    dice: float
    iou: float
    fdr: float
    auc: float
    auc_degenerate: bool = False


def _as_tensor(x, dtype):
    return x if isinstance(x, T.Tensor) else T.Tensor(np.asarray(x, dtype=dtype))


def cross_entropy(pred: T.Tensor, truth: T.Tensor) -> T.Tensor:
    """Per-pixel -[y log p + (1-y) log(1-p)], p clamped to [eps, 1-eps]."""
    p = T.clamp(pred, PROB_EPS, 1.0 - PROB_EPS)
    one = T.Tensor(np.asarray(1.0, dtype=pred.data.dtype))
    return T.neg(T.add(T.mul(truth, T.log(p)), T.mul(T.sub(one, truth), T.log(T.sub(one, p)))))


def bce_loss(pred: T.Tensor, truth) -> T.Tensor:
    """Pixel-mean binary cross entropy; pred clamped away from {0,1}."""
    y = _as_tensor(truth, pred.data.dtype)
    if y.shape != pred.shape:
        raise T.ShapeError(f"bce: pred {pred.shape} vs truth {y.shape}")
    return T.tmean(cross_entropy(pred, y))


def dice_loss(pred: T.Tensor, truth) -> T.Tensor:
    """1 - (2 sum(y*p) + eps) / (sum y + sum p + eps); soft predictions.

    The first axis is the batch (rank 3 or more): the loss is computed per
    sample and averaged, matching the per-image evaluation metric.
    """
    y = _as_tensor(truth, pred.data.dtype)
    if y.shape != pred.shape:
        raise T.ShapeError(f"dice: pred {pred.shape} vs truth {y.shape}")
    if pred.ndim < 3:
        raise T.ShapeError(f"dice expects a batch of rank 3 or more, got shape {pred.shape}")
    pred = T.reshape(pred, (pred.shape[0], -1))
    y = T.reshape(y, (y.shape[0], -1))
    dtype = pred.data.dtype
    smooth = T.Tensor(np.asarray(DICE_SMOOTH, dtype=dtype))
    two = T.Tensor(np.asarray(2.0, dtype=dtype))
    inter = T.tsum(T.mul(y, pred), axis=1)
    num = T.add(T.mul(two, inter), smooth)
    den = T.add(T.add(T.tsum(y, axis=1), T.tsum(pred, axis=1)), smooth)
    return T.sub(T.Tensor(np.asarray(1.0, dtype=dtype)), T.tmean(T.div(num, den)))


def _rows(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (N, ...) batch -> (N, pixels) scores and boolean labels
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise T.ShapeError(f"metrics: pred {pred.shape} vs truth {truth.shape}")
    if pred.ndim < 3:
        raise T.ShapeError(f"metrics expect a batch of rank 3 or more, got shape {pred.shape}")
    n = pred.shape[0]
    return pred.reshape(n, -1), truth.reshape(n, -1) > 0.5


def confusion_counts(pred: np.ndarray, truth: np.ndarray, threshold: float = 0.5) -> ConfusionCounts:
    """Per-image (N,) counts of an (N, ...) batch; pred >= threshold is positive."""
    scores, labels = _rows(pred, truth)
    hard = scores >= threshold
    tp = np.sum(hard & labels, axis=1)
    fp = np.sum(hard, axis=1) - tp
    fn = np.sum(labels, axis=1) - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=labels.shape[1] - tp - fp - fn, fn=fn)


def auc_score(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-image Mann-Whitney AUC of an (N, ...) batch, ties counting one half.

    Returns (auc, degenerate) arrays of shape (N,); a row whose truth is all
    positive or all negative gets 0.5 and degenerate True.  U sums, over the
    positives, the negatives below plus half the negatives tied, found by two
    binary searches in the row's sorted negatives.  2U is an integer, so
    U / (n_pos * n_neg) is the same float that the average-rank formula gives.
    """
    scores, labels = _rows(pred, truth)
    n_pos = labels.sum(axis=1)
    n_neg = labels.shape[1] - n_pos
    degenerate = (n_pos == 0) | (n_neg == 0)
    two_u = np.zeros(len(scores), dtype=np.int64)
    for i in np.flatnonzero(~degenerate):
        neg = np.sort(scores[i][~labels[i]])
        pos = np.sort(scores[i][labels[i]])  # sorted keys make the searches faster
        two_u[i] = (np.searchsorted(neg, pos, "left").sum()
                    + np.searchsorted(neg, pos, "right").sum())
    pairs = np.where(degenerate, 1, n_pos * n_neg)
    return np.where(degenerate, 0.5, two_u / 2.0 / pairs), degenerate


def _ratio(num: np.ndarray, den: np.ndarray, empty: float) -> np.ndarray:
    return np.divide(num, den, out=np.full(len(den), empty), where=den != 0)


def metrics(pred: np.ndarray, truth: np.ndarray, threshold: float = 0.5) -> list[Metrics]:
    """Dice, IoU, FDR and AUC of each image of an (N, ...) batch."""
    c = confusion_counts(pred, truth, threshold)
    dice = _ratio(2.0 * c.tp, 2.0 * c.tp + c.fp + c.fn, 1.0)
    iou = _ratio(c.tp, c.tp + c.fp + c.fn, 1.0)
    fdr = _ratio(c.fp, c.fp + c.tp, 0.0)
    auc, degenerate = auc_score(pred, truth)
    return [Metrics(dice=float(d), iou=float(j), fdr=float(f), auc=float(a), auc_degenerate=bool(g))
            for d, j, f, a, g in zip(dice, iou, fdr, auc, degenerate)]


def entropy_map(pred: np.ndarray) -> np.ndarray:
    """Per-pixel binary entropy in bits, with the 0 log 0 = 0 convention."""
    p = np.asarray(pred, dtype=np.float64)
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    pi = p[interior]
    out[interior] = -pi * np.log2(pi) - (1.0 - pi) * np.log2(1.0 - pi)
    return out
