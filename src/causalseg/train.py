"""SGD training loop, evaluation, latent diagnostics, ablations, and CSV emission.

Determinism contract: every stochastic choice in epoch e (shuffle order,
augmentation draws, latent noise) comes from a generator derived from
(seed, "epoch", e), so resuming from a checkpoint at any epoch boundary
replays the exact run an uninterrupted training would have produced.
"""

import atexit
import csv
import ctypes
import io
import math
import os
import signal
from dataclasses import asdict, dataclass, replace
from functools import reduce
from multiprocessing import Pipe
from pathlib import Path

import numpy as np

from . import boundary, tensor as T
from .boundary import usd_batch
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint, write_atomic
from .config import ModelConfig, TrainConfig
from .data import DatasetError, augment_batch, batches, generate_synthetic, ingest, split_dataset
from .gsm import extract_posterior, extract_prior, kl_loss
from .losses import bce_loss, dice_loss, metrics
from .model import ForwardResult, SegModel
from .rngs import derive_rng

LOSS_PARTS = ("total", "bce", "dice", "kl", "usd")
METRIC_NAMES = ("dice", "iou", "fdr", "auc")
METRICS_COLUMNS = ("epoch", *(f"loss_{name}" for name in LOSS_PARTS), *METRIC_NAMES)


# glibc sizes its mmap and trim thresholds by the last blocks freed; after half-batch
# steps they fall below evaluation's arrays, whose pages are then faulted in afresh
# on every call.  Pinned, the heap keeps them.
_libc = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_libc, "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


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
    _check_sizes(records, cfg, cfg.data)
    return records


def _check_sizes(records, cfg: TrainConfig, source: str):
    # the stacked train split, its quarter turns and evaluation need one square size
    for rec in records:
        if rec.image.shape != (cfg.size, cfg.size):
            h, w = rec.image.shape
            raise DatasetError(f"{source}: {rec.stem} is {h}x{w}, but the configured size is {cfg.size}")


def compute_losses(result: ForwardResult, masks: np.ndarray, cfg: TrainConfig,
                   band: np.ndarray | None = None) -> dict:
    """The training objective as named scalar Tensors: bce and dice always,
    kl and usd only when the GSm branch gives them, and their unweighted sum
    total = (usd + kl) + bce + dice, added in that order.

    ``band`` is the masks' (B,1,H,W) boundary band if already computed.  A
    non-finite part raises NonFiniteError naming it.
    """
    masks4 = masks if masks.ndim == 4 else masks[:, None]
    truth = masks4.astype(result.pred.data.dtype)
    parts = {"bce": bce_loss(result.pred, truth), "dice": dice_loss(result.pred, truth)}
    if result.posterior is not None:
        parts["kl"] = kl_loss(result.prior, result.posterior)
    if cfg.use_gsm:
        parts["usd"] = usd_batch(result.pred, masks4, cfg.band_width, band)
    for name, part in parts.items():
        if not np.isfinite(part.data).all():
            raise T.NonFiniteError(f"loss part {name!r} is non-finite")
    parts["total"] = reduce(T.add, [parts[name] for name in ("usd", "kl", "bce", "dice")
                                    if name in parts])
    return parts


@dataclass
class EpochStats:
    epoch: int
    losses: dict
    test: dict

    def row(self) -> dict:
        return {"epoch": self.epoch, **{f"loss_{k}": self.losses[k] for k in LOSS_PARTS},
                **self.test}


@dataclass
class FitResult:
    model: SegModel
    optimizer: SGD
    history: list
    train_records: list
    test_records: list


def _flat(arrays) -> np.ndarray:
    """``arrays`` raveled end to end: the pipe then pickles one array, not one per parameter."""
    return np.concatenate([a.ravel() for a in arrays])


def _cut(flat: np.ndarray, like) -> list:
    """Views of ``flat`` in the shapes of ``like``, in order: ``_flat`` undone."""
    ends = np.cumsum([a.size for a in like])
    return [flat[end - a.size:end].reshape(a.shape) for a, end in zip(like, ends)]


def _half_grads(model: SegModel, arrays, noise, share: float, cfg: TrainConfig) -> tuple:
    """Forward and backward of part of a training batch, its total loss scaled by
    ``share``, the part's fraction of the batch; return its loss parts' values
    times ``share`` and the parameters' gradients, flat in registry order."""
    images, masks, *band = arrays
    parts = compute_losses(model.forward(images, masks, training=True, noise=noise),
                           masks, cfg, *band)
    model.registry.zero_grad()
    T.backward(T.mul(parts["total"], T.Tensor(np.asarray(share, dtype=model.dtype))))
    return ({name: share * part.item() for name, part in parts.items()},
            _flat([t.grad for t in model.registry.tensors.values()]))


_helper = None  # (owner pid, helper pid, connection): this process's helper


def _fork_helper() -> tuple:
    """Fork the helper, which runs each ``_halves`` call's back half under the
    caller's error state until an error, EOF or its owner is gone."""
    ours, theirs = Pipe()
    owner, pid = os.getpid(), os.fork()
    if pid:
        theirs.close()
        return owner, pid, ours
    try:  # the helper leaves through os._exit on every path, an error or EOF included
        ours.close()
        model = None
        while os.getppid() == owner:
            if theirs.poll(1.0):
                fn, config, dtype, params, err, args = theirs.recv()
                if model is None or (model.config, model.dtype) != (config, dtype):
                    model = SegModel(config, 0, dtype)
                arrays = list(model.registry.named_arrays().values())
                for data, sent in zip(arrays, _cut(params, arrays)):
                    data[...] = sent
                with np.errstate(**err):  # not the state this process was forked under
                    theirs.send(fn(model, *args))
    finally:
        os._exit(0)


def close_helper():
    """Kill and reap this process's helper; drop one inherited through os.fork."""
    global _helper
    if _helper is not None:
        (owner, pid, conn), _helper = _helper, None
        conn.close()
        if owner == os.getpid():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


atexit.register(close_helper)


def _two_cores() -> bool:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cores > 1 and hasattr(os, "fork")


def _halves(fn, model: SegModel, front, back) -> list:
    """``[fn(model, *front), fn(model, *back)]``, ``fn`` a module-level function.
    With two usable cores this process's helper computes the back meanwhile, on
    ``model``'s parameters.  If the helper is gone (EOF, a broken pipe, a failed
    fork), this process computes the back itself after the front, so the results
    and the first error are those of one process.  If the front raises or is
    interrupted, the helper is killed first."""
    global _helper
    mine = None
    if _two_cores():
        try:
            if _helper is None or _helper[0] != os.getpid():  # an inherited one is dropped unused
                _helper = _fork_helper()
            params = _flat(model.registry.named_arrays().values())
            _helper[2].send((fn, model.config, model.dtype, params, np.geterr(), back))
            mine = fn(model, *front)
            return [mine, _helper[2].recv()]
        except (EOFError, OSError):
            close_helper()
        except BaseException:
            close_helper()
            raise
    if mine is None:
        mine = fn(model, *front)
    return [mine, fn(model, *back)]


def _step_grads(model: SegModel, batch, noise, cfg: TrainConfig) -> dict:
    """Set each parameter's gradient for a training batch and return its loss parts.
    The front ceil(B/2) samples and the rest are computed through ``_halves``; each
    half's loss is scaled by its share of B and the halves are added front + back,
    so the bytes are the same on any core count."""
    n = len(batch[0])
    cut = -(-n // 2)
    halves = [([a[i:j] for a in batch], None if noise is None else noise[i:j], (j - i) / n, cfg)
              for i, j in ((0, cut), (cut, n)) if j > i]
    done = _halves(_half_grads, model, *halves) if len(halves) > 1 else [_half_grads(model, *halves[0])]
    losses, grads = zip(*done)
    tensors = model.registry.tensors.values()
    for t, grad in zip(tensors, _cut(reduce(np.add, grads), [t.data for t in tensors])):
        t.grad = grad
    return {name: sum(part[name] for part in losses) for name in losses[0]}


def _predict_rows(model: SegModel, images: np.ndarray, batch: int) -> np.ndarray:
    """Probabilities (N,H,W) for (N,H,W) ``images``, ``batch`` per forward, in one process."""
    out = np.empty_like(images)
    for i in range(0, len(images), batch):
        out[i:i + batch] = model.forward(images[i:i + batch], training=False).pred.data[:, 0]
    return out


def predict(model: SegModel, images, batch: int) -> np.ndarray:
    """Inference probabilities (N,H,W) for (N,H,W) images, ``batch`` per forward;
    the latents are the distribution means, so ``batch`` does not change them.
    Two or more batches go through ``_halves``, cut after the front ceil(n/2)
    batches, so every forward sees the batch it sees alone: the bytes and errors
    are the sequential loop's."""
    images = np.asarray(images, dtype=model.dtype)
    if len(images) <= batch:
        return _predict_rows(model, images, batch)
    cut = -(-len(images) // (2 * batch)) * batch
    return np.concatenate(_halves(_predict_rows, model, (images[:cut], batch),
                                  (images[cut:], batch)))


def evaluate_model(model: SegModel, records, cfg: TrainConfig) -> tuple[list, dict]:
    """Inference-mode metrics per record plus their means (PCB untouched)."""
    if not records:
        return [], dict.fromkeys(METRIC_NAMES, 0.0)
    preds = predict(model, [rec.image for rec in records], cfg.batch)
    per_image = metrics(preds, np.stack([rec.mask for rec in records]))
    mean = {name: float(np.mean([getattr(m, name) for m in per_image])) for name in METRIC_NAMES}
    return per_image, mean


def _entr(p: np.ndarray) -> np.ndarray:
    """-p log p elementwise, 0 at p = 0."""
    return -p * np.log(np.where(p > 0, p, 1.0))


@T.no_graph()  # whole splits go through the heads at once: a graph would keep every activation
def diagnose(model: SegModel, train_records, test_records) -> dict:
    """Latent and mixer diagnostics on a fit's split; {} for the backbone alone.

    GSm: ``prior_mu_std`` (the train split's between-image std of prior mu,
    mean over K), ``prior_sigma_mean``, and ``kl`` (KL(prior || posterior) on
    the train split).  With every record tagged, also ``probe_accuracy`` of a
    nearest-class-mean probe of the tag on prior mu (train class means, test
    split) beside ``probe_majority_share``, the test split's largest stratum
    share.  CIBM: ``omega_entropy``, each stage's mean omega row entropy in nats.
    """
    def planes(records, field):  # (N,1,H,W) in the model's dtype
        return T.Tensor(np.stack([getattr(r, field) for r in records])[:, None].astype(model.dtype))

    out = {}
    if model.gdeb is not None:
        prior = extract_prior(planes(train_records, "image"), model.gdeb)
        mu = prior.mu.data.astype(np.float64)
        out["prior_mu_std"] = float(mu.std(axis=0).mean())
        out["prior_sigma_mean"] = float(prior.sigma.data.astype(np.float64).mean())
        posterior = extract_posterior(planes(train_records, "mask"), model.pcb)
        out["kl"] = kl_loss(prior, posterior).item()
        train_tags, test_tags = (np.array([rec.confounder_tag for rec in recs])
                                 for recs in (train_records, test_records))
        if min(train_tags.min(), test_tags.min()) >= 0:
            classes = np.unique(train_tags)
            means = np.stack([mu[train_tags == c].mean(axis=0) for c in classes])
            test_mu = extract_prior(planes(test_records, "image"), model.gdeb).mu.data
            dist = np.square(test_mu.astype(np.float64)[:, None] - means).sum(axis=2)
            out["probe_accuracy"] = float(np.mean(classes[dist.argmin(axis=1)] == test_tags))
            out["probe_majority_share"] = float(np.bincount(test_tags).max() / len(test_tags))
    if model.pipeline is not None:
        out["omega_entropy"] = [float(_entr(m.omega().data.astype(np.float64)).sum(axis=1).mean())
                                for m in model.pipeline.mixers]
    return out


def _momentum_arrays(opt: SGD) -> dict:
    return {f"opt.{name}": buf for name, buf in opt.velocity.items()}


def save_training_state(path, model: SegModel, opt: SGD, epochs_done: int, cfg: TrainConfig):
    arrays = model.registry.named_arrays()
    arrays.update(_momentum_arrays(opt))
    arrays["meta.epoch"] = np.array([float(epochs_done)], dtype=np.float64)
    save_checkpoint(path, arrays, cfg)


def restore_training_state(ckpt: Checkpoint, model: SegModel, opt: SGD) -> int:
    # every parameter and momentum array is checked by name and shape before any copy
    targets = {**model.registry.named_arrays(), **_momentum_arrays(opt)}
    shapes = {**{key: buf.shape for key, buf in targets.items()}, "meta.epoch": (1,)}
    missing = [key for key in shapes if key not in ckpt.arrays]
    if missing:
        raise TrainingError(f"checkpoint missing {', '.join(missing)}")
    for key, shape in shapes.items():
        if ckpt.arrays[key].shape != shape:
            raise TrainingError(f"checkpoint array {key} has shape {ckpt.arrays[key].shape}, "
                                f"the model's is {shape}")
    for key, buf in targets.items():
        buf[:] = ckpt.arrays[key].astype(buf.dtype, copy=False)
    return int(ckpt.arrays["meta.epoch"][0])


def write_rows(csv_path, rows):
    """CSV of dict rows, header from the first row's keys, through ``write_atomic``."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=tuple(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(csv_path, lambda fh: fh.write(text.getvalue().encode()))


def _read_rows(path, rows: int) -> list:
    """The first ``rows`` rows of a metrics CSV as dicts; a header other than
    METRICS_COLUMNS, or fewer full rows (none if it is missing), raises TrainingError."""
    text = Path(path).read_text() if Path(path).exists() else ""
    *lines, _ = text.split("\n")  # the last piece is an unterminated tail, or ""
    table = list(csv.reader(lines[:rows + 1]))
    if table and tuple(table[0]) != METRICS_COLUMNS:
        raise TrainingError(f"{path} is not a metrics CSV: its header is {','.join(table[0])!r}")
    complete = [row for row in table[1:] if len(row) == len(METRICS_COLUMNS)]
    if len(complete) < rows:
        raise TrainingError(f"{path} has {len(complete)} complete rows, "
                            f"but the checkpoint is at epoch {rows}")
    return [dict(zip(METRICS_COLUMNS, row)) for row in complete]


def fit(cfg: TrainConfig, records=None, csv_path=None, checkpoint_path=None,
        resume=None, log=None, stop_at_dice=None) -> FitResult:
    """Train per the config; optionally resume, log per-epoch rows, and stop
    early once mean train Dice reaches ``stop_at_dice``.  A non-finite value
    anywhere in an epoch raises TrainingError naming the epoch and step; one
    that the evaluation meets also names the parameter with the largest
    max |value|."""
    cfg.validate()
    if records is None:
        records = load_dataset(cfg)
    else:
        _check_sizes(records, cfg, "records")
    train_records, test_records = split_dataset(records, cfg.split_fraction, cfg.seed)
    model = SegModel(cfg.model_config(), cfg.seed)
    opt = SGD(model.registry, cfg.momentum, cfg.weight_decay)
    start_epoch, earlier_rows = 0, []
    if resume is not None:
        ckpt = load_checkpoint(resume)
        changed = [f"{k} {v!r} (now {getattr(cfg, k)!r})" for k, v in asdict(ckpt.config).items()
                   if k != "epochs" and v != getattr(cfg, k)]
        if changed:  # only a longer run may resume; anything else is another run
            raise TrainingError(f"{resume} was trained with {', '.join(changed)}")
        start_epoch = restore_training_state(ckpt, model, opt)
        if start_epoch >= cfg.epochs:
            raise TrainingError(
                f"checkpoint already at epoch {start_epoch} of {cfg.epochs}")
        if csv_path is not None:
            # rows written after the checkpoint was saved are replayed below
            earlier_rows = _read_rows(csv_path, start_epoch)

    # the train split as (N,1,H,W) planes, with one band per record: the
    # augmenting symmetries carry a mask's band to the transformed mask's band
    planes = [np.stack([rec.image for rec in train_records])[:, None].astype(np.float32),
              np.stack([rec.mask for rec in train_records])[:, None].astype(np.float32)]
    if cfg.use_gsm:
        planes.append(boundary.boundary_band(planes[1], cfg.band_width))

    history = []
    try:
        # every non-finite value ends in a named error, so numpy's warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(start_epoch, cfg.epochs):
                where = f"epoch {epoch}"
                lr = schedule_lr(cfg, epoch)
                erng = derive_rng(cfg.seed, "epoch", epoch)
                order = erng.permutation(len(train_records))
                sums = dict.fromkeys(LOSS_PARTS, 0.0)  # an absent part stays 0.0
                steps = 0
                for step, idx in enumerate(batches(order, cfg.batch)):
                    where = f"epoch {epoch} step {step}"
                    batch = [p[idx] for p in planes]
                    if cfg.augment:
                        batch = augment_batch(batch, erng)
                    # drawn after the augmentation's draws, once per step, by either core count
                    noise = (erng.standard_normal((len(idx), cfg.k))
                             if cfg.use_gsm or cfg.use_cibm else None)
                    parts = _step_grads(model, batch, noise, cfg)
                    opt.step(lr)
                    for name, value in parts.items():
                        sums[name] += value
                    steps += 1
                losses = {k: v / max(steps, 1) for k, v in sums.items()}
                where = f"epoch {epoch} evaluation after step {steps - 1}"
                _, test_mean = evaluate_model(model, test_records, cfg)
                stats = EpochStats(epoch=epoch, losses=losses, test=test_mean)
                history.append(stats)
                if csv_path is not None:  # before the checkpoint: a resume replays what it lacks
                    write_rows(csv_path, [*earlier_rows, *(h.row() for h in history)])
                if checkpoint_path is not None:
                    save_training_state(checkpoint_path, model, opt, epoch + 1, cfg)
                if log is not None:
                    log(f"epoch {epoch:3d} lr {lr:.2e} loss {losses['total']:.4f} "
                        f"test dice {test_mean['dice']:.4f}")
                if stop_at_dice is not None:
                    _, train_mean = evaluate_model(model, train_records, cfg)
                    if train_mean["dice"] >= stop_at_dice:
                        break
    except T.NonFiniteError as exc:
        message = f"{where}: {exc}"
        if "evaluation" in where:
            # the steps left every parameter finite, so name the largest one
            peaks = {name: float(np.abs(t.data).max()) for name, t in model.registry.tensors.items()}
            name = max(peaks, key=peaks.get)
            message += f"; largest parameter {name}, max |value| {peaks[name]:.3g}"
        raise TrainingError(message) from exc
    return FitResult(model=model, optimizer=opt, history=history,
                     train_records=train_records, test_records=test_records)


def gradient_check(k=8, size=32, batch=2, seed=0, band_width=2,
                   max_probes=40, eps=1e-5) -> dict:
    """Finite-difference audit of every loss part on a small 64-bit model.

    Every forward takes the same latent noise, so every probe
    re-evaluates the same deterministic graph.
    Returns {part: max relative gradient error} for bce, dice, kl,
    usd, and total.
    """
    records = generate_synthetic(batch, size, seed)
    images = np.stack([r.image[None] for r in records]).astype(np.float64)
    masks = np.stack([r.mask[None] for r in records]).astype(np.float64)
    model = SegModel(ModelConfig(k=k, size=size), seed, dtype=np.float64)
    cfg = TrainConfig(k=k, size=size, batch=batch, seed=seed, band_width=band_width,
                      n_samples=max(batch, 2), epochs=1).validate()

    noise = derive_rng(seed, "gradcheck", "eps").standard_normal((batch, k))

    def forward():
        return model.forward(images, masks, training=True, noise=noise)

    params = list(model.registry.tensors.values())
    out = {}
    for name in compute_losses(forward(), masks, cfg):  # every part, total last
        def f(_, name=name):
            return compute_losses(forward(), masks, cfg)[name]
        out[name] = T.finite_diff_check(
            f, params, eps=eps, max_probes=max_probes,
            rng=derive_rng(seed, "gradcheck", "probe", name))
    return out


# -- ablations ---------------------------------------------------------------

MODULE_VARIANTS = tuple(
    ({"variant": name, "use_gsm": int(gsm), "use_cibm": int(cibm)},
     {"use_gsm": gsm, "use_cibm": cibm})
    for name, gsm, cibm in (("backbone", False, False), ("backbone+gsm", True, False),
                            ("backbone+cibm", False, True), ("backbone+gsm+cibm", True, True)))


def ablate(cfg: TrainConfig, variants, seeds=None, csv_path=None, log=None) -> list:
    """One row per (fields, overrides) variant: its CSV fields, then each
    metric's mean over ``seeds`` (default: cfg.seed) of the final test
    evaluation of a fit of cfg with the overrides.  Every run's config is
    validated before the first fit."""
    seeds = [int(seed) for seed in seeds] if seeds else [cfg.seed]
    runs = [[replace(cfg, seed=seed, **overrides).validate() for seed in seeds]
            for _, overrides in variants]
    rows = []
    for (row_fields, _), cfgs in zip(variants, runs):
        tests = [fit(sub).history[-1].test for sub in cfgs]  # fit's own final evaluation
        row = {**row_fields, **{m: float(np.mean([t[m] for t in tests])) for m in METRIC_NAMES}}
        rows.append(row)
        if log is not None:
            fields = " ".join(f"{k}={v}" for k, v in row_fields.items())
            scores = " ".join(f"{m} {row[m]:.4f}" for m in METRIC_NAMES)
            log(f"{fields}: {scores} over {len(seeds)} seed(s)")
    if csv_path is not None:
        write_rows(csv_path, rows)
    return rows
