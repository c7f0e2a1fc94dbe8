"""Segmentation losses, the combined objective, and evaluation metrics.

The objective is the unweighted sum total = (usd + kl) + bce + dice.
Metrics are pixel-level Dice/IoU/FDR at threshold 0.5 plus rank-based AUC
with average-rank tie handling; entropy maps give per-pixel binary entropy
of the predicted foreground probability.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from . import tensor as T

PROB_EPS = 1e-7
DICE_SMOOTH = 1e-6


@dataclass
class LossBundle:
    """gaus = usd + kl and total = gaus + bce + dice hold exactly."""

    bce: T.Tensor
    dice: T.Tensor
    kl: T.Tensor
    usd: T.Tensor
    gaus: T.Tensor
    total: T.Tensor

    def values(self) -> dict:
        return {name: getattr(self, name).item()
                for name in ("bce", "dice", "kl", "usd", "gaus", "total")}


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


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

    Inputs of rank 3+ are treated as a batch along the first axis and the
    per-sample losses averaged, matching the per-image evaluation metric.
    """
    y = _as_tensor(truth, pred.data.dtype)
    if y.shape != pred.shape:
        raise T.ShapeError(f"dice: pred {pred.shape} vs truth {y.shape}")
    if pred.ndim >= 3:
        pred = T.reshape(pred, (pred.shape[0], -1))
        y = T.reshape(y, (y.shape[0], -1))
        axis = 1
    else:
        axis = None
    dtype = pred.data.dtype
    smooth = T.Tensor(np.asarray(DICE_SMOOTH, dtype=dtype))
    two = T.Tensor(np.asarray(2.0, dtype=dtype))
    inter = T.tsum(T.mul(y, pred), axis=axis)
    num = T.add(T.mul(two, inter), smooth)
    den = T.add(T.add(T.tsum(y, axis=axis), T.tsum(pred, axis=axis)), smooth)
    return T.sub(T.Tensor(np.asarray(1.0, dtype=dtype)), T.tmean(T.div(num, den)))


def total_loss(bce, dice, kl=None, usd=None) -> LossBundle:
    """Assemble the unweighted bundle; rejects non-finite parts by name."""
    dtype = bce.data.dtype if isinstance(bce, T.Tensor) else np.float32
    zero = T.Tensor(np.asarray(0.0, dtype=dtype))
    parts = {"bce": bce, "dice": dice, "kl": kl if kl is not None else zero,
             "usd": usd if usd is not None else zero}
    for name, part in parts.items():
        if not np.isfinite(part.data).all():
            raise T.NonFiniteError(f"loss part {name!r} is non-finite")
    gaus = T.add(parts["usd"], parts["kl"])
    total = T.add(T.add(gaus, parts["bce"]), parts["dice"])
    return LossBundle(bce=parts["bce"], dice=parts["dice"], kl=parts["kl"],
                      usd=parts["usd"], gaus=gaus, total=total)


def confusion_counts(pred: np.ndarray, truth: np.ndarray, threshold: float = 0.5) -> ConfusionCounts:
    hard = np.asarray(pred) >= threshold
    t = np.asarray(truth) > 0.5
    return ConfusionCounts(
        tp=int(np.sum(hard & t)), fp=int(np.sum(hard & ~t)),
        tn=int(np.sum(~hard & ~t)), fn=int(np.sum(~hard & t)))


def auc_score(pred: np.ndarray, truth: np.ndarray) -> tuple[float, bool]:
    """Mann-Whitney rank AUC over all pixels; degenerate truth -> (0.5, True)."""
    scores = np.asarray(pred, dtype=np.float64).ravel()
    labels = np.asarray(truth).ravel() > 0.5
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5, True
    ranks = rankdata(scores)  # average ranks on ties
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg)), False


def metrics(pred: np.ndarray, truth: np.ndarray, threshold: float = 0.5) -> Metrics:
    c = confusion_counts(pred, truth, threshold)
    dice = 2.0 * c.tp / (2.0 * c.tp + c.fp + c.fn) if (2 * c.tp + c.fp + c.fn) else 1.0
    iou = c.tp / (c.tp + c.fp + c.fn) if (c.tp + c.fp + c.fn) else 1.0
    fdr = c.fp / (c.fp + c.tp) if (c.fp + c.tp) else 0.0
    auc, degenerate = auc_score(pred, truth)
    return Metrics(dice=dice, iou=iou, fdr=fdr, auc=auc, auc_degenerate=degenerate)


def entropy_map(pred: np.ndarray) -> np.ndarray:
    """Per-pixel binary entropy in bits, with the 0 log 0 = 0 convention."""
    p = np.asarray(pred, dtype=np.float64)
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    pi = p[interior]
    out[interior] = -pi * np.log2(pi) - (1.0 - pi) * np.log2(1.0 - pi)
    return out
