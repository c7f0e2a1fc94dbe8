"""SGD training loop, evaluation, ablation drivers, and CSV emission.

Determinism contract: every stochastic choice in epoch e (shuffle order,
augmentation draws, latent noise) comes from a generator derived from
(seed, "epoch", e), so resuming from a checkpoint at any epoch boundary
replays the exact run an uninterrupted training would have produced.
"""

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .boundary import usd_batch
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TrainConfig
from .data import DatasetError, augment_pair, batches, generate_synthetic, ingest, split_dataset
from .gsm import kl_loss
from .losses import LossBundle, bce_loss, dice_loss, metrics, total_loss
from .model import ForwardResult, SegModel
from .rngs import derive_rng

METRICS_COLUMNS = ("epoch", "loss_total", "loss_bce", "loss_dice",
                   "loss_kl", "loss_usd", "dice", "iou", "fdr", "auc")


class TrainingError(RuntimeError):
    """Aborted run: a non-finite value during an epoch, or an invalid resume."""


class SGD:
    """Momentum SGD with coupled weight decay (decay added to the gradient)."""

    def __init__(self, registry: T.ParameterRegistry, momentum: float, weight_decay: float):
        self.registry = registry
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(t.data) for name, t in registry.tensors.items()}

    def step(self, lr: float):
        for name, t in self.registry.tensors.items():
            if t.grad is None:
                continue
            g = t.grad
            if self.weight_decay:
                g = g + np.asarray(self.weight_decay, dtype=t.data.dtype) * t.data
            v = self.velocity[name]
            v *= np.asarray(self.momentum, dtype=v.dtype)
            v += g
            t.data -= np.asarray(lr, dtype=t.data.dtype) * v
            if not np.isfinite(t.data).all():
                raise T.NonFiniteError(f"parameter {name} non-finite after SGD step")


def cosine_lr(lr0: float, epoch: int, total_epochs: int) -> float:
    """Decays from lr0 at epoch 0 to exactly 0 at the final epoch."""
    if total_epochs <= 1:
        return lr0
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / (total_epochs - 1)))


def schedule_lr(cfg: TrainConfig, epoch: int) -> float:
    if cfg.schedule == "constant":
        return cfg.lr
    return cosine_lr(cfg.lr, epoch, cfg.epochs)


def load_dataset(cfg: TrainConfig) -> list:
    if cfg.data == "synthetic":
        return generate_synthetic(cfg.n_samples, cfg.size, cfg.seed)
    records, errors = ingest(cfg.data)
    if errors:
        listing = "; ".join(f"{path}: {msg}" for path, msg in errors)
        raise DatasetError(f"bad files in {cfg.data}: {listing}")
    if not records:
        raise DatasetError(f"no image/mask pairs found in {cfg.data}")
    for rec in records:
        if rec.image.shape != (cfg.size, cfg.size):
            h, w = rec.image.shape
            raise DatasetError(f"{cfg.data}: {rec.stem} is {h}x{w}, but the configured size is {cfg.size}")
    return records


def compute_losses(result: ForwardResult, masks: np.ndarray, cfg: TrainConfig) -> LossBundle:
    """bce + dice always; the usd + kl pair only when the GSm branch is on."""
    masks4 = masks if masks.ndim == 4 else masks[:, None]
    truth = masks4.astype(result.pred.data.dtype)
    bce = bce_loss(result.pred, truth)
    dice = dice_loss(result.pred, truth)
    kl = usd = None
    if result.posterior is not None:
        kl = kl_loss(result.prior, result.posterior)
    if cfg.use_gsm:
        usd = usd_batch(result.pred, masks4, cfg.band_width, cfg.detach_uncertainty)
    return total_loss(bce, dice, kl=kl, usd=usd)


@dataclass
class EpochStats:
    epoch: int
    losses: dict
    test: dict

    def row(self) -> dict:
        out = {"epoch": self.epoch}
        out.update({f"loss_{k}": self.losses[k] for k in ("total", "bce", "dice", "kl", "usd")})
        out.update(self.test)
        return out


@dataclass
class FitResult:
    model: SegModel
    optimizer: SGD
    history: list
    train_records: list
    test_records: list


def _stack_batch(records, idx, cfg, rng):
    images, masks = [], []
    for i in idx:
        img, msk = records[i].image, records[i].mask
        if cfg.augment and rng is not None:
            img, msk = augment_pair(img, msk, rng)
        images.append(img[None])
        masks.append(msk[None])
    return np.stack(images).astype(np.float32), np.stack(masks).astype(np.float32)


def predict(model: SegModel, images, batch: int, rng=None) -> np.ndarray:
    """Inference probabilities (N,H,W) for (N,H,W) images, ``batch`` per forward.

    With ``rng`` the latents are drawn from it in record order, so the draws
    do not depend on ``batch``; without it they are the distribution means.
    """
    images = np.asarray(images, dtype=model.dtype)
    preds = [model.forward(images[i:i + batch], training=False, rng=rng).pred.data[:, 0]
             for i in range(0, len(images), batch)]
    return np.concatenate(preds) if preds else np.zeros(images.shape, dtype=model.dtype)


def evaluate_model(model: SegModel, records, cfg: TrainConfig) -> tuple[list, dict]:
    """Inference-mode metrics per record plus their means (PCB untouched)."""
    rng = derive_rng(cfg.seed, "eval") if cfg.stochastic_eval else None
    preds = predict(model, [rec.image for rec in records], cfg.batch, rng)
    per_image = [metrics(pred, rec.mask.astype(np.float64)) for pred, rec in zip(preds, records)]
    mean = {name: float(np.mean([getattr(m, name) for m in per_image]) if per_image else 0.0)
            for name in ("dice", "iou", "fdr", "auc")}
    return per_image, mean


def _momentum_arrays(opt: SGD) -> dict:
    return {f"opt.{name}": buf for name, buf in opt.velocity.items()}


def save_training_state(path, model: SegModel, opt: SGD, epochs_done: int):
    arrays = model.registry.named_arrays()
    arrays.update(_momentum_arrays(opt))
    arrays["meta.epoch"] = np.array([float(epochs_done)], dtype=np.float64)
    save_checkpoint(path, arrays, model.config.k, model.config.config_hash())


def restore_training_state(ckpt: Checkpoint, model: SegModel, opt: SGD) -> int:
    if ckpt.k != model.config.k:
        raise TrainingError(f"checkpoint K={ckpt.k} does not match config K={model.config.k}")
    if ckpt.config_hash != model.config.config_hash():
        raise TrainingError("checkpoint config hash does not match the requested model")
    missing = [key for key in (*_momentum_arrays(opt), "meta.epoch") if key not in ckpt.arrays]
    if missing:
        raise TrainingError(f"checkpoint missing {', '.join(missing)}")
    model.load_arrays(ckpt.arrays)
    for key, buf in _momentum_arrays(opt).items():
        buf[:] = ckpt.arrays[key].astype(buf.dtype, copy=False)
    return int(ckpt.arrays["meta.epoch"][0])


def _truncate_rows(path, rows: int):
    """Cut a CSV file to its header line plus its first ``rows`` rows."""
    with open(path, "r+b") as fh:
        for _ in range(rows + 1):
            fh.readline()
        fh.truncate()


def fit(cfg: TrainConfig, records=None, csv_path=None, checkpoint_path=None,
        resume=None, log=None, stop_at_dice=None) -> FitResult:
    """Train per the config; optionally resume, log per-epoch rows, and stop
    early once mean train Dice reaches ``stop_at_dice``.  A non-finite value
    anywhere in an epoch raises TrainingError naming the epoch and step."""
    cfg.validate()
    if records is None:
        records = load_dataset(cfg)
    train_records, test_records = split_dataset(records, cfg.split_fraction, cfg.seed)
    model = SegModel(cfg.model_config(), cfg.seed)
    opt = SGD(model.registry, cfg.momentum, cfg.weight_decay)
    start_epoch = 0
    if resume is not None:
        start_epoch = restore_training_state(load_checkpoint(resume), model, opt)
        if start_epoch >= cfg.epochs:
            raise TrainingError(
                f"checkpoint already at epoch {start_epoch} of {cfg.epochs}")

    history = []
    writer = None
    csv_file = None
    if csv_path is not None:
        mode = "a" if (resume is not None and Path(csv_path).exists()) else "w"
        if mode == "a":
            # rows written after the checkpoint was saved are replayed below
            _truncate_rows(csv_path, start_epoch)
        csv_file = open(csv_path, mode, newline="")
        writer = csv.DictWriter(csv_file, fieldnames=METRICS_COLUMNS)
        if mode == "w":
            writer.writeheader()

    try:
        # every non-finite value ends in a named error, so numpy's warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(start_epoch, cfg.epochs):
                where = f"epoch {epoch}"
                lr = schedule_lr(cfg, epoch)
                erng = derive_rng(cfg.seed, "epoch", epoch)
                order = erng.permutation(len(train_records))
                sums = {k: 0.0 for k in ("total", "bce", "dice", "kl", "usd")}
                steps = 0
                for step, idx in enumerate(batches(order, cfg.batch)):
                    where = f"epoch {epoch} step {step}"
                    images, masks = _stack_batch(train_records, idx, cfg,
                                                 erng if cfg.augment else None)
                    result = model.forward(images, masks, training=True, rng=erng)
                    bundle = compute_losses(result, masks, cfg)
                    model.registry.zero_grad()
                    T.backward(bundle.total)
                    opt.step(lr)
                    for key, value in bundle.values().items():
                        if key in sums:
                            sums[key] += value
                    steps += 1
                losses = {k: v / max(steps, 1) for k, v in sums.items()}
                where = f"epoch {epoch} evaluation"
                _, test_mean = evaluate_model(model, test_records, cfg)
                stats = EpochStats(epoch=epoch, losses=losses, test=test_mean)
                history.append(stats)
                if writer is not None:
                    writer.writerow(stats.row())
                    csv_file.flush()
                if checkpoint_path is not None:
                    save_training_state(checkpoint_path, model, opt, epoch + 1)
                if log is not None:
                    log(f"epoch {epoch:3d} lr {lr:.2e} loss {losses['total']:.4f} "
                        f"test dice {test_mean['dice']:.4f}")
                if stop_at_dice is not None:
                    _, train_mean = evaluate_model(model, train_records, cfg)
                    if train_mean["dice"] >= stop_at_dice:
                        break
    except T.NonFiniteError as exc:
        raise TrainingError(f"{where}: {exc}") from exc
    finally:
        if csv_file is not None:
            csv_file.close()
    return FitResult(model=model, optimizer=opt, history=history,
                     train_records=train_records, test_records=test_records)


def gradient_check(k=8, size=32, batch=2, seed=0, band_width=2,
                   max_probes=40, eps=1e-5) -> dict:
    """Finite-difference audit of every loss part on a small 64-bit model.

    The latent draw is frozen so each probe re-evaluates a deterministic
    graph.  Returns {part: max relative gradient error} for bce, dice, kl,
    usd, and total.
    """
    from .config import ModelConfig

    records = generate_synthetic(batch, size, seed)
    images = np.stack([r.image[None] for r in records]).astype(np.float64)
    masks = np.stack([r.mask[None] for r in records]).astype(np.float64)
    truth = masks.copy()
    model = SegModel(ModelConfig(k=k, size=size), seed, dtype=np.float64)
    frozen = derive_rng(seed, "gradcheck", "eps").standard_normal((batch, k))
    cfg = TrainConfig(k=k, size=size, batch=batch, seed=seed, band_width=band_width,
                      n_samples=max(batch, 2), epochs=1).validate()

    def forward():
        return model.forward(images, masks, training=True, frozen_eps=frozen)

    parts = {
        "bce": lambda r: bce_loss(r.pred, truth),
        "dice": lambda r: dice_loss(r.pred, truth),
        "kl": lambda r: kl_loss(r.prior, r.posterior),
        "usd": lambda r: usd_batch(r.pred, masks, band_width),
        "total": lambda r: compute_losses(r, masks, cfg).total,
    }
    params = list(model.registry.tensors.values())
    out = {}
    for name, part in parts.items():
        def f(_, part=part):
            return part(forward())
        out[name] = T.finite_diff_check(
            f, params, eps=eps, max_probes=max_probes,
            rng=derive_rng(seed, "gradcheck", "probe", name))
    return out


# -- ablation drivers ---------------------------------------------------------

def _write_rows(csv_path, rows):
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=tuple(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def ablate_k(cfg: TrainConfig, k_list, csv_path=None, log=None) -> list:
    """One train/evaluate cycle per K with a shared seed; Table-shaped rows."""
    if not k_list:
        raise ValueError("k_list must be nonempty")
    rows = []
    for k in k_list:
        sub = replace(cfg, k=int(k)).validate()
        mean = fit(sub).history[-1].test  # fit's own final evaluation
        row = {"k": int(k), **mean}
        rows.append(row)
        if log is not None:
            log(f"K={k}: dice {mean['dice']:.4f} iou {mean['iou']:.4f} "
                f"fdr {mean['fdr']:.4f} auc {mean['auc']:.4f}")
    if csv_path is not None:
        _write_rows(csv_path, rows)
    return rows


MODULE_VARIANTS = (
    ("backbone", False, False),
    ("backbone+gsm", True, False),
    ("backbone+cibm", False, True),
    ("backbone+gsm+cibm", True, True),
)


def ablate_modules(cfg: TrainConfig, seeds=None, csv_path=None, log=None) -> list:
    """Four-variant grid; metrics are means over the given seeds."""
    seeds = list(seeds) if seeds else [cfg.seed]
    rows = []
    for name, use_gsm, use_cibm in MODULE_VARIANTS:
        per_seed = []
        for seed in seeds:
            sub = replace(cfg, seed=int(seed), use_gsm=use_gsm, use_cibm=use_cibm).validate()
            per_seed.append(fit(sub).history[-1].test)
        row = {"variant": name, "use_gsm": int(use_gsm), "use_cibm": int(use_cibm)}
        row.update({m: float(np.mean([p[m] for p in per_seed]))
                    for m in ("dice", "iou", "fdr", "auc")})
        rows.append(row)
        if log is not None:
            log(f"{name}: dice {row['dice']:.4f} over {len(seeds)} seed(s)")
    if csv_path is not None:
        _write_rows(csv_path, rows)
    return rows
