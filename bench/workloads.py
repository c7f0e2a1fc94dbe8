"""The benchmark workloads and the measurements they take.

Every workload is a closed loop with one caller in one process.  The
program sees only records generated from the workload seed, through the
public API: ``train.fit(cfg, records=...)``, whose per-epoch
``train.evaluate_model`` calls on the test split are the evaluation
traffic.  Functions are looked up through their module at call time so
that the tracer's wrappers apply.
"""

import hashlib
import math
import resource
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import causalseg.data as data
import causalseg.model as model
import causalseg.train as train
from causalseg.config import TrainConfig

# acceptance-8 shape: 256 samples of 32x32, K=16, batch 8, lr 0.05 cosine
TRAIN32 = TrainConfig(n_samples=256, size=32, k=16, batch=8, epochs=3, augment=False,
                      lr=0.05, schedule="cosine", weight_decay=0.0)
# set-ups before each fit, so that set-up time samples the whole run as the fits do
SETUPS_PER_FIT = 3


def _workloads(train32: TrainConfig) -> dict:
    return {"train_full32": replace(train32, use_gsm=True, use_cibm=True),
            "train_backbone32": replace(train32, use_gsm=False, use_cibm=False)}


WORKLOADS = _workloads(TRAIN32)


def shrink():
    """Tiny shapes for the smoke test; every code path still runs."""
    WORKLOADS.update(_workloads(replace(TRAIN32, n_samples=32, size=16, k=4, epochs=3)))


@dataclass
class Measure:
    """Raw samples of one phase of a run; ``end_to_end`` names them."""

    setup_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    epoch_s: list = field(default_factory=list)
    fit_s: float = 0.0
    steps: int = 0
    train_samples: int = 0
    first_losses: list = field(default_factory=list)
    eval_call_s: list = field(default_factory=list)
    eval_images: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    per_image: list = field(default_factory=list)  # (dice, iou, fdr, auc) of the first fit's model
    cpu_s: float = 0.0

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)


@contextmanager
def patched(owner, attr, wrap):
    """Replace ``owner.attr`` by ``wrap(original)`` for the block."""
    original = vars(owner)[attr]
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run_fit(cfg: TrainConfig, records, m: Measure, workdir: Path):
    """One ``fit`` as ``causalseg train`` runs it, with a metrics CSV and a
    checkpoint written every epoch.  Records step, epoch and evaluation
    times, checks the result, and returns it (None if it raised)."""
    marks, epochs, evals = [], [], []

    def step_clock(original):
        def step(self, lr):
            out = original(self, lr)
            marks.append(time.perf_counter())
            return out
        return step

    def eval_clock(original):
        def evaluate_model(net, part, cfg_):
            start = time.perf_counter()
            out = original(net, part, cfg_)
            evals.append((time.perf_counter() - start, len(part), out[0]))
            return out
        return evaluate_model

    csv_path, ckpt_path = workdir / "metrics.csv", workdir / "model.ckpt"
    start = time.perf_counter()
    try:
        with patched(train.SGD, "step", step_clock), patched(train, "evaluate_model", eval_clock):
            result = train.fit(cfg, records=records, csv_path=csv_path, checkpoint_path=ckpt_path,
                               log=lambda _line: epochs.append(time.perf_counter()))
    except Exception as exc:  # a failed step is counted, and the run reports it
        m.attempted += len(marks) + len(evals) + 1
        m.fail(f"fit raised {type(exc).__name__}: {exc}")
        return None
    m.fit_s += time.perf_counter() - start
    m.attempted += len(marks) + len(evals)
    m.steps += len(marks)
    n_train = len(result.train_records)
    m.train_samples += n_train * len(result.history)
    # a step interval runs from one step's return to the next one's, within an epoch
    per_epoch = math.ceil(n_train / cfg.batch)
    for e in range(len(epochs)):
        m.step_s.extend(np.diff(marks[e * per_epoch:(e + 1) * per_epoch]))
    # the first epoch is timed from the fit call, the rest between log callbacks
    m.epoch_s.extend(np.diff([start] + epochs))
    m.eval_call_s.extend(s for s, _, _ in evals)
    m.eval_images += sum(n for _, n, _ in evals)

    losses = [h.losses["total"] for h in result.history]
    if not all(math.isfinite(v) for v in losses):
        m.fail(f"non-finite epoch loss {losses}")
    elif len(losses) > 1 and not losses[-1] < losses[0]:
        m.fail(f"training loss did not fall: {losses}")
    m.first_losses.append(losses[0])
    # every fit has the same seed, so the same final checkpoint and per-image metrics
    digest = hashlib.sha256(ckpt_path.read_bytes()).hexdigest()
    if m.digests and digest != m.digests[0]:
        m.fail("same seed gave a different final checkpoint")
    m.digests.append(digest)
    per_image = [[float(r.dice), float(r.iou), float(r.fdr), float(r.auc)] for r in evals[-1][2]]
    if not np.isfinite(per_image).all():
        m.fail("non-finite per-image eval metric")
    elif m.per_image and per_image != m.per_image:
        m.fail("same seed gave different per-image eval metrics")
    m.per_image = m.per_image or per_image
    return result


def check_predictions(result, cfg: TrainConfig, m: Measure):
    """Untimed forward passes over the test split, a training batch at a
    time: predictions finite and in [0,1]."""
    records = result.test_records
    for i in range(0, len(records), cfg.batch):
        images = np.stack([r.image[None] for r in records[i:i + cfg.batch]]).astype(np.float32)
        pred = result.model.forward(images, training=False).pred.data
        m.attempted += 1
        if not np.isfinite(pred).all() or pred.min() < 0.0 or pred.max() > 1.0:
            m.fail(f"test records {i}-{i + len(images) - 1}: prediction outside [0,1] or non-finite")


def check_replay(ref: Measure, replayed: dict, m: Measure):
    """A fresh process with the same seed must give the same final
    checkpoint and per-image metrics as this one."""
    m.attempted += 1
    if replayed["errors"]:
        m.fail(f"replay failed: {replayed['errors']}")
    elif replayed["digest"] != ref.digests[0]:
        m.fail("a fresh process with the same seed gave a different final checkpoint")
    elif replayed["per_image"] != ref.per_image:
        m.fail("a fresh process with the same seed gave different per-image eval metrics")


class Runner:
    """Runs one workload: set-ups and fits in turn until the time is up."""

    def __init__(self, cfg: TrainConfig, seed: int, workdir: Path, tracer=None):
        self.cfg = replace(cfg, seed=seed).validate()
        self.workdir = workdir
        self.tracer = tracer
        self.records = None

    @contextmanager
    def traced(self, label):
        if label is None or self.tracer is None:
            yield
            return
        self.tracer.install(label)
        try:
            yield
        finally:
            self.tracer.uninstall()

    def setup(self, m: Measure, label=None):
        """Data generation and model build, repeated so that set-up time is
        a median."""
        cfg = self.cfg
        for _ in range(SETUPS_PER_FIT):
            with self.traced(label):
                start = time.perf_counter()
                self.records = data.generate_synthetic(cfg.n_samples, cfg.size, cfg.seed)
                model.SegModel(cfg.model_config(), cfg.seed)
                m.setup_s.append(time.perf_counter() - start)

    def load(self, seconds: float, label=None) -> Measure:
        """Set-ups and fits in turn, at least two fits, and no new one once
        it would end more than half a round past ``seconds``.  With
        ``label`` the fits are traced as that run and the set-ups as
        "setup"."""
        m = Measure()
        start = time.perf_counter()
        last = 0.0
        while len(m.digests) < 2 or time.perf_counter() - start + last / 2 <= seconds:
            round_start = time.perf_counter()
            self.setup(m, label and "setup")
            cpu = time.process_time()
            with tempfile.TemporaryDirectory(dir=self.workdir) as tmp, self.traced(label):
                result = run_fit(self.cfg, self.records, m, Path(tmp))
            m.cpu_s += time.process_time() - cpu
            if result is None:
                break
            check_predictions(result, self.cfg, m)
            last = time.perf_counter() - round_start
        return m

    def replay(self) -> dict:
        """One set-up and one fit, for the cross-process check."""
        m = Measure()
        self.setup(m)
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            run_fit(self.cfg, self.records, m, Path(tmp))
        return {"errors": m.errors, "digest": m.digests[0] if m.digests else None,
                "per_image": m.per_image}


def compare(ref: Measure, traced: Measure, failures: Measure):
    """Tracing must not change results: same checkpoint, same per-image metrics."""
    if ref.digests[:1] != traced.digests[:1]:
        failures.fail("traced and untraced fits gave different checkpoints")
    if ref.per_image != traced.per_image:
        failures.fail("traced and untraced fits gave different per-image metrics")


def _pct_ms(values, q):
    return float(np.percentile(values, q)) * 1000.0


def end_to_end(load: Measure) -> dict:
    """Every end-to-end metric as {name: (value, unit)}."""
    return {
        "setup_s": (statistics.median(load.setup_s), "s"),
        "epoch_s": (statistics.median(load.epoch_s), "s"),
        "train_samples_per_s": (load.train_samples / load.fit_s, "1/s"),
        "step_ms_p50": (_pct_ms(load.step_s, 50), "ms"),
        "step_ms_p90": (_pct_ms(load.step_s, 90), "ms"),
        "eval_images_per_s": (load.eval_images / sum(load.eval_call_s), "1/s"),
        "eval_call_ms_p50": (_pct_ms(load.eval_call_s, 50), "ms"),
        "eval_call_ms_p90": (_pct_ms(load.eval_call_s, 90), "ms"),
        "cpu_ms_per_sample": (load.cpu_s * 1000.0 / load.train_samples, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "train_loss_first": (load.first_losses[0], "1"),
        "eval_auc": (float(np.mean([v[3] for v in load.per_image])), "1"),
    }
