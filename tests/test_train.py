"""Training loop: schedules, optimizer math, resume determinism, drivers."""

import csv
import errno
import gc
import os
import re
import resource
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import causalseg
from causalseg import boundary
from causalseg import tensor as T
from causalseg import train
from causalseg.config import ModelConfig, TrainConfig
from causalseg.data import DatasetError, SampleRecord, generate_synthetic, split_dataset
from causalseg.model import SegModel
from causalseg.train import (
    SGD,
    MODULE_VARIANTS,
    TrainingError,
    ablate,
    compute_losses,
    cosine_lr,
    evaluate_model,
    fit,
    gradient_check,
    load_dataset,
    predict,
    restore_training_state,
    save_training_state,
    schedule_lr,
)
from causalseg.checkpoint import load_checkpoint, save_checkpoint
from causalseg.rngs import derive_rng

TINY = dict(n_samples=6, size=16, batch=2, epochs=3, k=4, augment=False,
            lr=1e-2, weight_decay=0.0, seed=0)


# -- learning-rate schedule --------------------------------------------------

def test_cosine_endpoints():
    assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
    assert cosine_lr(0.1, 9, 10) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(0.1, 0, 1) == 0.1  # degenerate horizon keeps lr0


def test_cosine_monotone_decreasing():
    values = [cosine_lr(0.1, e, 20) for e in range(20)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cosine_halfway():
    assert cosine_lr(0.1, 5, 11) == pytest.approx(0.05)


def test_schedule_constant():
    cfg = TrainConfig(schedule="constant", lr=0.03, epochs=7)
    assert [schedule_lr(cfg, e) for e in (0, 3, 6)] == [0.03] * 3


# -- optimizer ---------------------------------------------------------------

def test_sgd_matches_hand_computation():
    reg = T.ParameterRegistry()
    w = reg.add("w", T.Tensor(np.array([1.0, -2.0], dtype=np.float64), requires_grad=True))
    opt = SGD(reg, momentum=0.5, weight_decay=0.1)

    w.grad = np.array([0.3, -0.4])
    opt.step(lr=0.1)
    # g = grad + wd*w = [0.4, -0.6]; v = g; w -= lr*v
    np.testing.assert_allclose(w.data, [1.0 - 0.04, -2.0 + 0.06])

    w.grad = np.array([0.0, 0.0])
    opt.step(lr=0.1)
    # g = wd*w; v = 0.5*v_prev + g
    v = 0.5 * np.array([0.4, -0.6]) + 0.1 * np.array([0.96, -1.94])
    np.testing.assert_allclose(w.data, [0.96, -1.94] - 0.1 * v)


def test_sgd_skips_unused_parameters():
    reg = T.ParameterRegistry()
    w = reg.add("w", T.Tensor(np.ones(2), requires_grad=True))
    SGD(reg, momentum=0.9, weight_decay=0.0).step(lr=1.0)
    np.testing.assert_array_equal(w.data, [1.0, 1.0])  # grad is None


def test_sgd_rejects_a_non_finite_update():
    reg = T.ParameterRegistry()
    reg.add("ok", T.Tensor(np.ones(2), requires_grad=True)).grad = np.ones(2)
    bad = reg.add("w", T.Tensor(np.ones(2), requires_grad=True))
    bad.grad = np.array([0.0, np.inf])
    with pytest.raises(T.NonFiniteError, match="parameter w non-finite after SGD step"):
        SGD(reg, momentum=0.0, weight_decay=0.0).step(lr=1.0)


def test_fit_names_the_parameter_an_infinite_step_left_non_finite(monkeypatch):
    real_backward = T.backward

    def backward_with_inf_grads(loss):
        real_backward(loss)
        for node in T._topo_order(loss):
            if not node._parents and node.requires_grad:  # a leaf: it keeps its .grad
                node.grad.flat[0] = np.inf

    monkeypatch.setattr(T, "backward", backward_with_inf_grads)
    cfg = TrainConfig(**TINY).validate()
    with pytest.raises(TrainingError, match=r"^epoch 0 step 0: parameter backbone\.enc0\.weight "
                                            r"non-finite after SGD step$"):
        fit(cfg)


# -- loss gating -------------------------------------------------------------

def _forward_losses(use_gsm, use_cibm):
    cfg = TrainConfig(use_gsm=use_gsm, use_cibm=use_cibm, **TINY).validate()
    records = generate_synthetic(2, cfg.size, cfg.seed)
    images = np.stack([r.image for r in records]).astype(np.float32)
    masks = np.stack([r.mask for r in records]).astype(np.float32)
    model = SegModel(cfg.model_config(), cfg.seed)
    out = model.forward(images, masks, training=True, noise=derive_rng(0, "z").standard_normal((2, cfg.k)))
    return {name: part.item() for name, part in compute_losses(out, masks, cfg).items()}


def test_loss_parts_follow_variant():
    plain = _forward_losses(False, False)
    assert set(plain) == {"bce", "dice", "total"}
    assert plain["total"] == pytest.approx(plain["bce"] + plain["dice"], rel=1e-6)

    full = _forward_losses(True, True)
    assert full["kl"] != 0.0 and full["usd"] != 0.0
    assert full["total"] == pytest.approx(
        full["bce"] + full["dice"] + full["kl"] + full["usd"], rel=1e-6)


def test_backbone_fit_reports_zero_kl_and_usd():
    cfg = TrainConfig(**{**TINY, "epochs": 1}, use_gsm=False, use_cibm=False).validate()
    losses = fit(cfg).history[0].losses
    assert losses["kl"] == 0.0 and losses["usd"] == 0.0
    assert losses["total"] == pytest.approx(losses["bce"] + losses["dice"], rel=1e-6)


# -- fit ---------------------------------------------------------------------

def test_fit_loss_decreases():
    cfg = TrainConfig(**{**TINY, "epochs": 12, "lr": 5e-2,
                         "schedule": "constant"}).validate()
    result = fit(cfg)
    first = result.history[0].losses["total"]
    last = result.history[-1].losses["total"]
    assert last < first


def test_fit_writes_metrics_csv(tmp_path):
    cfg = TrainConfig(**TINY).validate()
    csv_path = tmp_path / "metrics.csv"
    result = fit(cfg, csv_path=csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == ("epoch", "loss_total", "loss_bce", "loss_dice", "loss_kl",
                              "loss_usd", "dice", "iou", "fdr", "auc")
    assert len(rows) == 1 + cfg.epochs
    assert [r[0] for r in rows[1:]] == [str(e) for e in range(cfg.epochs)]
    for row in rows[1:]:
        assert all(np.isfinite(float(v)) for v in row)
    assert len(result.history) == cfg.epochs


def test_fit_stop_at_dice_halts_early():
    cfg = TrainConfig(**TINY).validate()
    result = fit(cfg, stop_at_dice=0.0)
    assert len(result.history) == 1


class _Abort(Exception):
    pass


def _abort_after(n):
    calls = {"n": 0}

    def log(_line):
        calls["n"] += 1
        if calls["n"] >= n:
            raise _Abort

    return log


def test_resume_replays_uninterrupted_run(tmp_path):
    cfg = TrainConfig(**{**TINY, "epochs": 4}).validate()

    straight_csv = tmp_path / "straight.csv"
    straight = fit(cfg, csv_path=straight_csv)

    resumed_csv = tmp_path / "resumed.csv"
    ckpt = tmp_path / "model.ckpt"
    with pytest.raises(_Abort):
        fit(cfg, csv_path=resumed_csv, checkpoint_path=ckpt, log=_abort_after(2))
    resumed = fit(cfg, csv_path=resumed_csv, checkpoint_path=ckpt, resume=ckpt)

    # params, velocity, and the metrics file all match bit for bit
    for name, arr in straight.model.registry.named_arrays().items():
        np.testing.assert_array_equal(arr, resumed.model.registry.named_arrays()[name])
    for name, buf in straight.optimizer.velocity.items():
        np.testing.assert_array_equal(buf, resumed.optimizer.velocity[name])
    assert straight_csv.read_bytes() == resumed_csv.read_bytes()
    assert [h.epoch for h in resumed.history] == [2, 3]


def test_resume_after_a_crash_between_csv_row_and_checkpoint(tmp_path, monkeypatch):
    cfg = TrainConfig(**TINY).validate()
    straight_csv = tmp_path / "straight.csv"
    fit(cfg, csv_path=straight_csv)

    real_save = train.save_training_state

    def save_then_crash_after_epoch_1(path, model, opt, epochs_done, cfg):
        if epochs_done == 2:
            raise _Abort  # epoch 1's CSV row is written, its checkpoint is not
        real_save(path, model, opt, epochs_done, cfg)

    resumed_csv, ckpt = tmp_path / "resumed.csv", tmp_path / "model.ckpt"
    monkeypatch.setattr(train, "save_training_state", save_then_crash_after_epoch_1)
    with pytest.raises(_Abort):
        fit(cfg, csv_path=resumed_csv, checkpoint_path=ckpt)
    monkeypatch.undo()
    assert len(resumed_csv.read_bytes().splitlines()) == 3  # header + epochs 0 and 1
    fit(cfg, csv_path=resumed_csv, checkpoint_path=ckpt, resume=ckpt)
    assert resumed_csv.read_bytes() == straight_csv.read_bytes()


def test_resume_refuses_a_csv_shorter_than_the_checkpoint(tmp_path):
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    csv_path, ckpt = tmp_path / "metrics.csv", tmp_path / "model.ckpt"
    fit(cfg, csv_path=csv_path, checkpoint_path=ckpt)
    short = b"".join(csv_path.read_bytes().splitlines(keepends=True)[:-1])  # epoch 1's row lost
    csv_path.write_bytes(short)
    saved = ckpt.read_bytes()
    with pytest.raises(TrainingError, match=re.escape(
            f"{csv_path} has 1 complete rows, but the checkpoint is at epoch 2")):
        fit(replace(cfg, epochs=3), csv_path=csv_path, checkpoint_path=ckpt, resume=ckpt)
    assert csv_path.read_bytes() == short and ckpt.read_bytes() == saved


def test_resume_refuses_a_csv_row_cut_short(tmp_path):
    # a row cut to 5 of its 10 fields is not a complete row, even with its line end
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    csv_path, ckpt = tmp_path / "metrics.csv", tmp_path / "model.ckpt"
    fit(cfg, csv_path=csv_path, checkpoint_path=ckpt)
    header, first, second = csv_path.read_bytes().splitlines(keepends=True)
    cut = b"".join([header, b",".join(first.split(b",")[:5]) + b"\r\n", second])
    csv_path.write_bytes(cut)
    with pytest.raises(TrainingError, match=re.escape(
            f"{csv_path} has 1 complete rows, but the checkpoint is at epoch 2")):
        fit(replace(cfg, epochs=3), csv_path=csv_path, checkpoint_path=ckpt, resume=ckpt)
    assert csv_path.read_bytes() == cut


def test_resume_refuses_a_missing_csv(tmp_path, monkeypatch):
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    ckpt = tmp_path / "model.ckpt"
    fit(cfg, csv_path=tmp_path / "metrics.csv", checkpoint_path=ckpt)
    steps = []
    monkeypatch.setattr(SGD, "step", lambda self, lr: steps.append(lr))
    fresh = tmp_path / "fresh" / "metrics.csv"
    with pytest.raises(TrainingError, match=re.escape(
            f"{fresh} has 0 complete rows, but the checkpoint is at epoch 2")):
        fit(replace(cfg, epochs=3), csv_path=fresh, checkpoint_path=tmp_path / "fresh" / "m.ckpt",
            resume=ckpt)
    assert not steps and not fresh.parent.exists()


def test_resume_refuses_a_csv_with_another_header(tmp_path, monkeypatch):
    # the header of an evaluate --out CSV
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    csv_path, ckpt = tmp_path / "metrics.csv", tmp_path / "model.ckpt"
    fit(cfg, csv_path=csv_path, checkpoint_path=ckpt)
    header, *rows = csv_path.read_bytes().splitlines(keepends=True)
    other = b"".join([b"stem,dice,iou,fdr,auc\r\n", *rows])
    csv_path.write_bytes(other)
    saved = ckpt.read_bytes()
    steps = []
    monkeypatch.setattr(SGD, "step", lambda self, lr: steps.append(lr))
    with pytest.raises(TrainingError, match=re.escape(
            f"{csv_path} is not a metrics CSV: its header is 'stem,dice,iou,fdr,auc'")):
        fit(replace(cfg, epochs=3), csv_path=csv_path, checkpoint_path=ckpt, resume=ckpt)
    assert not steps and csv_path.read_bytes() == other and ckpt.read_bytes() == saved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "model.ckpt"]


def _rows_and_epoch(csv_path, ckpt):
    """The CSV's epoch column ([] if it is missing) and the checkpoint's epoch (None)."""
    rows = []
    if csv_path.exists():
        with open(csv_path, newline="") as fh:
            rows = [row[0] for row in csv.reader(fh)][1:]
    epoch = int(load_checkpoint(ckpt).arrays["meta.epoch"][0]) if ckpt.exists() else None
    return rows, epoch


@pytest.mark.parametrize("name", ["fsync", "replace"])
def test_a_crash_at_any_write_leaves_a_run_that_resumes_to_the_same_bytes(tmp_path, monkeypatch,
                                                                          name):
    # one test batch, so that predict runs in one process and only the crash ends the child
    cfg = TrainConfig(**TINY).validate()
    real, calls = getattr(os, name), []
    monkeypatch.setattr(os, name, lambda *args: calls.append(1) or real(*args))
    fit(cfg, csv_path=tmp_path / "metrics.csv", checkpoint_path=tmp_path / "model.ckpt")
    monkeypatch.undo()
    straight = [(tmp_path / f).read_bytes() for f in ("metrics.csv", "model.ckpt")]
    # each epoch writes two files: one rename, and an fsync of the file and of its directory
    assert len(calls) == {"fsync": 4, "replace": 2}[name] * cfg.epochs

    def crash_on(n):
        count = []

        def crash(*args):
            count.append(1)
            if len(count) == n:
                os._exit(9)
            return real(*args)
        return crash

    for n in range(1, len(calls) + 1):
        run = tmp_path / f"crash{n}"
        csv_path, ckpt = run / "metrics.csv", run / "model.ckpt"
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit on every path
            try:
                setattr(os, name, crash_on(n))
                fit(cfg, csv_path=csv_path, checkpoint_path=ckpt)
            finally:
                os._exit(1)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 9, n
        rows, epoch = _rows_and_epoch(csv_path, ckpt)
        if epoch is None:  # no checkpoint yet: start again
            fit(cfg, csv_path=csv_path, checkpoint_path=ckpt)
        else:
            # the CSV is written first, so it holds the checkpoint's epochs and at most one more
            assert rows[:epoch] == [str(e) for e in range(epoch)] and len(rows) <= epoch + 1, n
            if epoch < cfg.epochs:
                fit(cfg, csv_path=csv_path, checkpoint_path=ckpt, resume=ckpt)
        assert [(run / f).read_bytes() for f in ("metrics.csv", "model.ckpt")] == straight, n
        assert sorted(p.name for p in run.iterdir()) == ["metrics.csv", "model.ckpt"], n


def test_resume_rejects_finished_run(tmp_path):
    cfg = TrainConfig(**TINY).validate()
    ckpt = tmp_path / "model.ckpt"
    fit(cfg, checkpoint_path=ckpt)
    with pytest.raises(TrainingError, match="already at epoch"):
        fit(cfg, resume=ckpt)


def test_restore_rejects_other_architecture(tmp_path):
    cfg = TrainConfig(**TINY).validate()
    ckpt = tmp_path / "model.ckpt"
    fit(cfg, checkpoint_path=ckpt)

    other = TrainConfig(**{**TINY, "k": 8, "epochs": 5}).validate()
    with pytest.raises(TrainingError, match=re.escape(f"{ckpt} was trained with k 4 (now 8)")):
        fit(other, resume=ckpt)

    no_gsm = TrainConfig(**{**TINY, "use_gsm": False, "epochs": 5}).validate()
    with pytest.raises(TrainingError, match=re.escape(
            f"{ckpt} was trained with use_gsm True (now False)")):
        fit(no_gsm, resume=ckpt)


def test_fit_aborts_on_non_finite(tmp_path):
    records = generate_synthetic(4, 16, seed=0)
    bad = records[0].image.copy()
    bad[0, 0] = np.nan
    records[0] = SampleRecord(image=bad, mask=records[0].mask,
                              confounder_tag=records[0].confounder_tag,
                              stem=records[0].stem)
    cfg = TrainConfig(**{**TINY, "n_samples": 4, "split_fraction": 0.9,
                         "use_gsm": False, "use_cibm": False}).validate()
    with pytest.raises(TrainingError, match=r"epoch \d+ step \d+"):
        fit(cfg, records=records)


@pytest.mark.parametrize("sizes", [(16, 24), (24, 24)], ids=["mixed-sizes", "not-the-configured-size"])
def test_fit_rejects_records_of_another_size(sizes):
    records = generate_synthetic(3, sizes[0], seed=0) + generate_synthetic(3, sizes[1], seed=1)
    cfg = TrainConfig(**TINY).validate()  # size 16
    bad = next(rec for rec in records if rec.image.shape != (16, 16))
    with pytest.raises(DatasetError, match=f"records: {bad.stem} is 24x24, but the configured size is 16"):
        fit(cfg, records=records)


DIVERGENT = dict(n_samples=16, size=16, batch=4, epochs=2, k=4, augment=False,
                 lr=1000.0, weight_decay=0.0, seed=0)


def test_fit_divergence_is_a_training_error():
    # lr=1e3 blows the weights up; the NaN then surfaces in the forward pass
    # (GSm sigma) or the evaluation, outside the loss/backward calls
    cfg = TrainConfig(**DIVERGENT).validate()
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match=r"epoch \d+"):
        fit(cfg)


@pytest.mark.parametrize("dropped", ["backbone.", "opt.", "meta.epoch"])
def test_restore_rejects_incomplete_checkpoint(tmp_path, dropped):
    cfg = TrainConfig(**TINY).validate()
    ckpt = tmp_path / "model.ckpt"
    fit(cfg, checkpoint_path=ckpt)
    stored = load_checkpoint(ckpt)
    key = next(name for name in stored.arrays if name.startswith(dropped))
    del stored.arrays[key]
    save_checkpoint(ckpt, stored.arrays, stored.config)
    longer = TrainConfig(**{**TINY, "epochs": 5}).validate()
    with pytest.raises(TrainingError, match=f"missing {key}"):
        fit(longer, resume=ckpt)


CFG = TrainConfig(**TINY).validate()


def _fresh_state(seed):
    model = SegModel(CFG.model_config(), seed)
    return model, SGD(model.registry, CFG.momentum, CFG.weight_decay)


def test_restore_copies_every_parameter(tmp_path):
    images = np.stack([r.image for r in generate_synthetic(2, 16, seed=0)])
    src, src_opt = _fresh_state(0)
    for buf in src_opt.velocity.values():
        buf += 1.0
    save_training_state(tmp_path / "model.ckpt", src, src_opt, 1, CFG)
    dst, dst_opt = _fresh_state(1)
    before = dst.forward(images, training=False).pred.data.copy()
    assert restore_training_state(load_checkpoint(tmp_path / "model.ckpt"), dst, dst_opt) == 1
    after = dst.forward(images, training=False).pred.data
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(after, src.forward(images, training=False).pred.data)
    for name, buf in src_opt.velocity.items():
        np.testing.assert_array_equal(dst_opt.velocity[name], buf)


@pytest.mark.parametrize("key", ["backbone.head.bias", "opt.backbone.head.weight"])
def test_restore_names_a_misshapen_array(tmp_path, key):
    src, src_opt = _fresh_state(0)
    save_training_state(tmp_path / "model.ckpt", src, src_opt, 1, CFG)
    stored = load_checkpoint(tmp_path / "model.ckpt")
    stored.arrays[key] = np.zeros(2, dtype=np.float32)
    dst, dst_opt = _fresh_state(1)
    untouched = {name: arr.copy() for name, arr in dst.registry.named_arrays().items()}
    with pytest.raises(TrainingError, match=rf"checkpoint array {re.escape(key)} has shape \(2,\)"):
        restore_training_state(stored, dst, dst_opt)
    for name, arr in dst.registry.named_arrays().items():  # checked before any copy
        np.testing.assert_array_equal(arr, untouched[name])


def test_checkpoint_written_every_epoch(tmp_path):
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    ckpt = tmp_path / "model.ckpt"
    fit(cfg, checkpoint_path=ckpt)
    stored = load_checkpoint(ckpt)
    assert stored.config == cfg
    assert int(stored.arrays["meta.epoch"][0]) == cfg.epochs
    assert any(name.startswith("opt.") for name in stored.arrays)


# -- evaluation --------------------------------------------------------------

def test_evaluate_deterministic_by_default():
    cfg = TrainConfig(**TINY).validate()
    records = generate_synthetic(3, cfg.size, cfg.seed)
    model = SegModel(cfg.model_config(), cfg.seed)
    a = evaluate_model(model, records, cfg)
    b = evaluate_model(model, records, cfg)
    assert a[1] == b[1]
    assert len(a[0]) == 3
    assert set(a[1]) == {"dice", "iou", "fdr", "auc"}


def test_diagnose_fresh_models():
    cfg = TrainConfig(**TINY).validate()
    train_records, test_records = split_dataset(
        generate_synthetic(cfg.n_samples, cfg.size, cfg.seed), cfg.split_fraction, cfg.seed)
    full = SegModel(cfg.model_config(), cfg.seed)
    out = train.diagnose(full, train_records, test_records)
    # zero omega logits: every row is uniform over the K features
    np.testing.assert_allclose(out["omega_entropy"], [np.log(cfg.k)] * 3, rtol=0, atol=1e-6)
    assert {"prior_mu_std", "prior_sigma_mean", "kl", "probe_accuracy",
            "probe_majority_share"} <= set(out)

    untagged = [replace(rec, confounder_tag=-1) for rec in train_records]
    assert not {"probe_accuracy", "probe_majority_share"} & set(
        train.diagnose(full, untagged, test_records))
    backbone = SegModel(replace(cfg, use_gsm=False, use_cibm=False).model_config(), cfg.seed)
    assert train.diagnose(backbone, train_records, test_records) == {}


def test_entr_is_zero_at_zero():
    from scipy.special import entr  # the reference, for tests only

    p = np.array([0.0, 1e-300, 1e-3, 0.25, 0.5, 1 / np.e, 0.9, 1.0])
    with np.errstate(all="raise"):
        got = train._entr(p)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, entr(p), rtol=1e-15, atol=0)


def _predict_case(**overrides):
    cfg = TrainConfig(**{**TINY, "batch": 4, **overrides}).validate()
    records = generate_synthetic(7, cfg.size, cfg.seed)  # 7 = 4 + a ragged 3
    model = SegModel(cfg.model_config(), cfg.seed)
    return cfg, model, np.stack([r.image for r in records])


def test_predict_does_not_depend_on_batch_size():
    cfg, model, images = _predict_case()
    one = predict(model, images, 1)
    batched = predict(model, images, cfg.batch)
    assert batched.shape == images.shape
    np.testing.assert_allclose(batched, one, rtol=1e-5, atol=1e-5)
    single = model.forward(images[:1, None], training=False).pred.data[0, 0]
    np.testing.assert_allclose(one[0], single, rtol=1e-5, atol=1e-5)


def _sequential_predict(model, images, batch):
    """The one-process per-batch loop that ``predict`` must reproduce byte for byte."""
    images = np.asarray(images, dtype=model.dtype)
    preds = [model.forward(images[i:i + batch], training=False).pred.data[:, 0]
             for i in range(0, len(images), batch)]
    return np.concatenate(preds) if preds else np.zeros(images.shape, dtype=model.dtype)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two usable cores whatever the host has, a count of ``os.fork`` calls,
    and no helper yet: the first ``predict`` or split training step forks one
    that sees the test's patches."""
    train.close_helper()
    count = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: count.append(1) or real_fork())
    return count


@pytest.fixture(scope="module")
def predict_models():
    cfg = TrainConfig(**TINY).validate()
    images = np.stack([r.image for r in generate_synthetic(77, cfg.size, cfg.seed)])
    return images, {dtype: SegModel(cfg.model_config(), cfg.seed, dtype=dtype)
                    for dtype in (np.float32, np.float64)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("count", [lambda b: 1, lambda b: b - 1, lambda b: b, lambda b: b + 1,
                                   lambda b: 2 * b + 3, lambda b: 77],
                         ids=["1", "batch-1", "batch", "batch+1", "2batch+3", "77"])
def test_predict_equals_the_sequential_loop(predict_models, forks, count, batch, dtype):
    images, models = predict_models
    n, model = count(batch), models[dtype]
    out = predict(model, images[:n], batch)
    train.close_helper()
    _assert_no_child_left()
    assert out.dtype == dtype and out.shape == images[:n].shape
    assert np.array_equal(out, _sequential_predict(model, images[:n], batch))
    assert len(forks) == (n > batch)  # the helper, once there are two batches


def _no_fork():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))  # as at the process limit


@pytest.mark.parametrize("no_second_core", ["one core", "no fork", "no affinity", "fork fails"])
def test_predict_runs_in_one_process_without_a_second_core(
        predict_models, forks, monkeypatch, no_second_core):
    images, models = predict_models
    if no_second_core == "one core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif no_second_core == "fork fails":
        monkeypatch.setattr(os, "fork", _no_fork)
    else:
        monkeypatch.delattr(os, "fork" if no_second_core == "no fork" else "sched_getaffinity")
    out = predict(models[np.float32], images[:20], 4)
    assert np.array_equal(out, _sequential_predict(models[np.float32], images[:20], 4))
    assert not forks


@pytest.mark.parametrize("index", [2, 17], ids=["first-half", "second-half"])
def test_predict_raises_the_error_of_the_sequential_loop(predict_models, forks, monkeypatch,
                                                         index):
    images, models = predict_models
    images = images[:20].copy()  # 5 batches of 4: this process takes images 0-11, the helper 12-19
    images[index] = 2.0  # outside [0, 1]: a mark the patched forward refuses
    real_forward = SegModel.forward

    def forward(self, batch, *args, **kwargs):
        if (batch == 2.0).any():
            raise T.NonFiniteError(f"refused a batch of {len(batch)} at {batch.shape[-1]} px")
        return real_forward(self, batch, *args, **kwargs)

    monkeypatch.setattr(SegModel, "forward", forward)
    with pytest.raises(T.NonFiniteError) as sequential:
        _sequential_predict(models[np.float32], images, 4)
    with pytest.raises(T.NonFiniteError) as forked:
        predict(models[np.float32], images, 4)
    _assert_no_child_left()
    assert len(forks) == 1
    assert str(forked.value) == str(sequential.value) == "refused a batch of 4 at 16 px"


@pytest.mark.parametrize("slow", ["parent", "child"])
def test_predict_gives_the_same_bytes_wherever_the_processes_meet(predict_models, forks,
                                                                  monkeypatch, slow):
    """The halves are fixed: a slow side makes the other wait for it, and
    changes no byte."""
    images, models = predict_models
    expected = _sequential_predict(models[np.float32], images, 8)
    parent, real_forward = os.getpid(), SegModel.forward

    def forward(self, batch, *args, **kwargs):
        if (os.getpid() == parent) == (slow == "parent"):
            time.sleep(0.05)
        return real_forward(self, batch, *args, **kwargs)

    monkeypatch.setattr(SegModel, "forward", forward)
    out = predict(models[np.float32], images, 8)
    train.close_helper()
    _assert_no_child_left()
    assert len(forks) == 1 and np.array_equal(out, expected)


def test_predict_interrupted_in_the_parent_kills_the_child(predict_models, forks, monkeypatch):
    images, models = predict_models
    parent, real_forward = os.getpid(), SegModel.forward

    def forward(self, images, *args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # the helper would hold predict for a minute if it were awaited
        return real_forward(self, images, *args, **kwargs)

    monkeypatch.setattr(SegModel, "forward", forward)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        predict(models[np.float32], images[:20], 4)
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_predict_recomputes_the_half_of_a_child_that_dies(predict_models, forks, monkeypatch):
    images, models = predict_models
    parent, real_forward = os.getpid(), SegModel.forward
    expected = _sequential_predict(models[np.float64], images, 8)

    def forward(self, images, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real_forward(self, images, *args, **kwargs)

    monkeypatch.setattr(SegModel, "forward", forward)
    out = predict(models[np.float64], images, 8)
    _assert_no_child_left()
    assert len(forks) == 1 and np.array_equal(out, expected)


def test_predict_after_its_helper_is_killed_computes_the_back_itself(predict_models, forks):
    images, models = predict_models
    model = models[np.float32]
    expected = _sequential_predict(model, images, 8)
    assert np.array_equal(predict(model, images, 8), expected)
    helper = train._helper[1]
    os.kill(helper, signal.SIGKILL)
    os.waitid(os.P_PID, helper, os.WEXITED | os.WNOWAIT)  # dead, and not reaped yet
    assert np.array_equal(predict(model, images, 8), expected)  # sent to a dead helper
    _assert_no_child_left()
    assert len(forks) == 1 and train._helper is None
    assert np.array_equal(predict(model, images, 8), expected)
    assert len(forks) == 2 and train._helper is not None  # the next call forks a fresh one
    train.close_helper()
    _assert_no_child_left()


def test_predict_follows_the_weights_dtype_and_config_of_each_call(forks):
    cfg = TrainConfig(**TINY).validate()
    records = generate_synthetic(20, cfg.size, cfg.seed)
    images, masks = (np.stack([getattr(r, f) for r in records]) for f in ("image", "mask"))
    backbone, full = (replace(cfg, use_gsm=on, use_cibm=on) for on in (False, True))
    runs = [(sub, SegModel(sub.model_config(), cfg.seed, dtype=dtype))
            for sub, dtype in ((backbone, np.float32), (full, np.float64),
                               (backbone, np.float64), (full, np.float32))]
    for sub, model in runs * 2:  # config and dtype change from call to call
        before = predict(model, images, 4)
        assert np.array_equal(before, _sequential_predict(model, images, 4))
        result = model.forward(images[:4], masks[:4], training=True,
                               noise=derive_rng(0, "step").standard_normal((4, sub.k)))
        model.registry.zero_grad()
        T.backward(compute_losses(result, masks[:4], sub)["total"])
        SGD(model.registry, 0.0, 0.0).step(0.1)
        after = predict(model, images, 4)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, _sequential_predict(model, images, 4))
    assert len(forks) == 1  # one helper for all sixteen calls
    train.close_helper()
    _assert_no_child_left()


def test_predict_runs_the_helper_under_the_callers_error_state(predict_models, forks):
    images, models = predict_models
    images = images[:20].copy()
    images[19] = 1e38  # overflows float32 in the last batch, which is in the helper's half
    model = models[np.float32]
    with np.errstate(all="ignore"):  # the helper is forked under fit's state
        predict(model, images[:8], 4)
    with np.errstate(over="raise"):
        _sequential_predict(model, images[:16], 4)  # only the marked batch overflows
        with pytest.raises(FloatingPointError) as sequential:
            _sequential_predict(model, images, 4)
        with pytest.raises(FloatingPointError) as helped:
            predict(model, images, 4)
    assert str(helped.value) == str(sequential.value)
    assert len(forks) == 1
    _assert_no_child_left()


def test_predict_in_a_forked_child_forks_its_own_helper(predict_models, forks):
    images, models = predict_models
    model = models[np.float32]
    expected = _sequential_predict(model, images, 8)
    assert np.array_equal(predict(model, images, 8), expected)
    owners = train._helper
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit on every path
        try:
            same = np.array_equal(predict(model, images, 8), expected)
            own = train._helper[0] == os.getpid() and train._helper[1] != owners[1]
            train.close_helper()
            os._exit(0 if same and own else 3)
        finally:
            os._exit(1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert np.array_equal(predict(model, images, 8), expected)
    assert train._helper is owners and len(forks) == 2  # this process's helper, and the child
    train.close_helper()
    _assert_no_child_left()


_OWNER = """
import atexit, os, sys, time
def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("reaped", flush=True)
atexit.register(reaped)  # runs after every handler registered later
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}
from causalseg import train
from causalseg.config import ModelConfig
from causalseg.model import SegModel
train.predict(SegModel(ModelConfig(k=4, size=16), 0), np.zeros((4, 16, 16)), 2)
holder = os.fork() if sys.argv[1] == "killed, a child holds the pipe" else None
if holder == 0:
    time.sleep(30)
    os._exit(0)
print(train._helper[1], holder, flush=True)
if sys.argv[1] != "exit":
    time.sleep(60)
"""


def _gone(pid: int) -> bool:
    """No such process, or one that has exited and waits only to be reaped."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(") ", 1)[1][0] in "ZX"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("end", ["exit", "killed", "killed, a child holds the pipe"])
def test_the_helper_does_not_outlive_its_owner(end):
    src = Path(causalseg.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    owner = subprocess.Popen([sys.executable, "-c", _OWNER, end], env=env,
                             stdout=subprocess.PIPE, text=True)
    helper, holder = owner.stdout.readline().split()
    if end != "exit":
        os.kill(owner.pid, signal.SIGKILL)
    rest = owner.stdout.read() if end == "exit" else ""
    owner.stdout.close()
    owner.wait(timeout=60)
    assert rest == ("reaped\n" if end == "exit" else "")  # the owner reaped its helper at exit
    deadline = time.monotonic() + 5
    while not _gone(int(helper)) and time.monotonic() < deadline:
        time.sleep(0.05)
    gone = _gone(int(helper))
    if holder != "None":
        os.kill(int(holder), signal.SIGKILL)
    assert gone


# -- the split training step -------------------------------------------------

# 13 train records in batches of 3: 3, 3, 3, 3 and a batch of 1, which is not split
SPLIT = {**TINY, "n_samples": 19, "batch": 3, "epochs": 2}


def _one_core(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    train.close_helper()


@pytest.mark.parametrize("variant", [{"use_gsm": False, "use_cibm": False}, {}, {"augment": True}],
                         ids=["backbone", "full", "full, augment"])
def test_a_fit_writes_the_same_bytes_on_one_core_and_on_two(tmp_path, monkeypatch, forks, variant):
    cfg = TrainConfig(**{**SPLIT, **variant}).validate()
    two = fit(cfg, csv_path=tmp_path / "two.csv", checkpoint_path=tmp_path / "two.ckpt")
    assert len(forks) == 1 and len(two.train_records) == 13
    _one_core(monkeypatch)
    fit(cfg, csv_path=tmp_path / "one.csv", checkpoint_path=tmp_path / "one.ckpt")
    assert len(forks) == 1
    assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "two.ckpt").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


@pytest.mark.parametrize("on", [False, True], ids=["backbone", "full"])
def test_the_halves_add_up_to_the_whole_batch(on):
    cfg = TrainConfig(**{**TINY, "use_gsm": on, "use_cibm": on}).validate()
    records = generate_synthetic(5, cfg.size, cfg.seed)
    arrays = [np.stack([getattr(r, f) for r in records])[:, None].astype(np.float64)
              for f in ("image", "mask")]
    noise = derive_rng(0, "noise").standard_normal((5, cfg.k))
    model = SegModel(cfg.model_config(), cfg.seed, dtype=np.float64)
    whole = compute_losses(model.forward(*arrays, training=True, noise=noise), arrays[1], cfg)
    model.registry.zero_grad()
    T.backward(whole["total"])
    expected = [t.grad for t in model.registry.tensors.values()]
    front = train._half_grads(model, [a[:3] for a in arrays], noise[:3], 3 / 5, cfg)
    back = train._half_grads(model, [a[3:] for a in arrays], noise[3:], 2 / 5, cfg)
    for name, part in whole.items():
        assert front[0][name] + back[0][name] == pytest.approx(part.item(), rel=1e-12), name
    summed = train._cut(front[1] + back[1], expected)
    for name, want, got in zip(model.registry.tensors, expected, summed, strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0, err_msg=name)


def test_a_step_and_an_inference_leave_no_reference_cycles():
    # graphs are freed by reference counting alone, so cyclic GC finds nothing to collect
    cfg = TrainConfig(**{**TINY, "use_gsm": True, "use_cibm": True}).validate()
    records = generate_synthetic(3, cfg.size, cfg.seed)
    images, masks = [np.stack([getattr(r, f) for r in records])[:, None].astype(np.float32)
                     for f in ("image", "mask")]
    band = boundary.boundary_band(masks, cfg.band_width)
    noise = derive_rng(0, "noise").standard_normal((3, cfg.k))
    model = SegModel(cfg.model_config(), cfg.seed)
    gc.collect()
    gc.disable()
    try:
        train._half_grads(model, [images, masks, band], noise, 1.0, cfg)
        model.forward(images, training=False)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("half", [0, 1], ids=["front", "back"])
def test_a_non_finite_half_gives_the_one_core_error(monkeypatch, forks, half):
    cfg = TrainConfig(**SPLIT).validate()
    records = generate_synthetic(cfg.n_samples, cfg.size, cfg.seed)
    train_records, _ = split_dataset(records, cfg.split_fraction, cfg.seed)
    order = derive_rng(cfg.seed, "epoch", 0).permutation(len(train_records))
    train_records[order[3 + 2 * half]].image[0, 0] = np.inf  # step 1, front or back half
    errors = []
    for _ in range(2):
        with pytest.raises(TrainingError, match="^epoch 0 step 1: ") as caught:
            fit(cfg, records=records)
        errors.append(str(caught.value))
        _assert_no_child_left()  # the helper that met the error, or was killed, is reaped
        _one_core(monkeypatch)
    assert errors[0] == errors[1] and len(forks) == 1


def test_a_helper_killed_between_epochs_leaves_the_same_bytes(tmp_path, forks):
    cfg = TrainConfig(**SPLIT).validate()
    fit(cfg, checkpoint_path=tmp_path / "straight.ckpt")
    train.close_helper()

    def kill_helper(_line):
        os.kill(train._helper[1], signal.SIGKILL)

    fit(cfg, checkpoint_path=tmp_path / "killed.ckpt", log=kill_helper)
    assert len(forks) == 3  # the straight run's helper, then one per epoch of the killed run
    assert (tmp_path / "straight.ckpt").read_bytes() == (tmp_path / "killed.ckpt").read_bytes()


def test_a_fit_whose_fork_fails_gives_the_parameters_of_one_with_a_helper(monkeypatch, forks):
    cfg = TrainConfig(**SPLIT).validate()
    helped = fit(cfg).model.registry.named_arrays()
    train.close_helper()
    monkeypatch.setattr(os, "fork", _no_fork)
    alone = fit(cfg).model.registry.named_arrays()
    assert len(forks) == 1 and train._helper is None
    _assert_no_child_left()
    for name, data in helped.items():
        assert np.array_equal(alone[name], data), name


@pytest.mark.skipif(not hasattr(train._libc, "mallopt"), reason="glibc's mallopt only")
def test_an_evaluation_after_split_steps_takes_few_page_faults(forks):
    # the benchmark's full-model shape; without the pinned malloc thresholds
    # every evaluation call faulted in thousands of pages afresh
    cfg = TrainConfig(n_samples=256, size=32, k=16, batch=8, epochs=1, augment=False,
                      lr=0.05, weight_decay=0.0).validate()
    result = fit(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate_model(result.model, result.test_records, cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def test_evaluate_empty_records():
    cfg = TrainConfig(**TINY).validate()
    model = SegModel(cfg.model_config(), cfg.seed)
    per_image, mean = evaluate_model(model, [], cfg)
    assert per_image == [] and mean["dice"] == 0.0


# -- dataset loading ---------------------------------------------------------

def test_load_dataset_synthetic_respects_config():
    cfg = TrainConfig(**TINY).validate()
    records = load_dataset(cfg)
    assert len(records) == cfg.n_samples
    assert records[0].image.shape == (cfg.size, cfg.size)


def test_load_dataset_rejects_bad_directory(tmp_path):
    from causalseg.data import DatasetError

    cfg = TrainConfig(**{**TINY, "data": str(tmp_path)}).validate()
    with pytest.raises(DatasetError, match="no image/mask pairs"):
        load_dataset(cfg)


# -- boundary band cache -----------------------------------------------------

@pytest.mark.parametrize("augment", [False, True])
def test_boundary_bands_per_record_or_per_step(monkeypatch, augment):
    cfg = TrainConfig(**{**TINY, "augment": augment}).validate()
    real_band = boundary.boundary_band
    banded = []

    def counted(masks, width=2):
        banded.append(int(np.prod(masks.shape[:-2])))
        return real_band(masks, width)

    monkeypatch.setattr(boundary, "boundary_band", counted)
    result = fit(cfg)
    # one band per train record per fit; augmentation transforms it with the mask
    assert sum(banded) == len(result.train_records)


@pytest.mark.parametrize("augment", [False, True])
def test_cached_bands_give_the_same_checkpoint(tmp_path, monkeypatch, augment):
    cfg = TrainConfig(**{**TINY, "augment": augment}).validate()  # GSm on, 3 epochs
    fit(cfg, checkpoint_path=tmp_path / "cached.ckpt")
    real_losses = train.compute_losses

    def per_step(result, masks, cfg_, band=None):
        return real_losses(result, masks, cfg_)  # drop the cache: bands from the masks

    monkeypatch.setattr(train, "compute_losses", per_step)
    fit(cfg, checkpoint_path=tmp_path / "per_step.ckpt")
    assert (tmp_path / "cached.ckpt").read_bytes() == (tmp_path / "per_step.ckpt").read_bytes()


# -- gradient audit ----------------------------------------------------------

def test_gradient_check_smoke():
    errors = gradient_check(k=4, size=16, batch=2, max_probes=4)
    assert set(errors) == {"bce", "dice", "kl", "usd", "total"}
    assert max(errors.values()) < 1e-4


def test_gradient_check_at_size_8_audits_the_2px_stage():
    # the first decoder stage, and its CIBM gate, run at 2x2 here
    errors = gradient_check(k=4, size=8, batch=2)
    assert max(errors.values()) < 1e-4


# -- ablations --------------------------------------------------------------

def _k_variants(ks):
    return [({"k": k}, {"k": k}) for k in ks]


def test_ablate_k_rows_and_determinism(tmp_path):
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = ablate(cfg, _k_variants([4, 8]), csv_path=path_a)
    ablate(cfg, _k_variants([4, 8]), csv_path=path_b)
    assert [r["k"] for r in rows] == [4, 8]
    for row in rows:
        assert all(np.isfinite(float(row[m])) for m in ("dice", "iou", "fdr", "auc"))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_ablate_k_reuses_the_final_epoch_evaluation(monkeypatch):
    cfg = TrainConfig(**{**TINY, "epochs": 2, "k": 8}).validate()
    real_evaluate = train.evaluate_model
    calls = []

    def counted(*args):
        calls.append(args)
        return real_evaluate(*args)

    monkeypatch.setattr(train, "evaluate_model", counted)
    rows = ablate(cfg, _k_variants([8]))
    assert len(calls) == cfg.epochs  # one per epoch, none after the fit
    result = fit(cfg)
    _, mean = real_evaluate(result.model, result.test_records, cfg)
    assert rows == [{"k": 8, **mean}]


def test_ablate_modules_grid(tmp_path):
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    rows = ablate(cfg, MODULE_VARIANTS, seeds=(0,), csv_path=tmp_path / "m.csv")
    assert [r["variant"] for r in rows] == [
        "backbone", "backbone+gsm", "backbone+cibm", "backbone+gsm+cibm"]
    flags = {(bool(r["use_gsm"]), bool(r["use_cibm"])) for r in rows}
    assert flags == {(False, False), (True, False), (False, True), (True, True)}
    for row in rows:
        assert 0.0 <= row["dice"] <= 1.0
