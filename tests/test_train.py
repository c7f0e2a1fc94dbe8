"""Training loop: schedules, optimizer math, resume determinism, drivers."""

import csv

import numpy as np
import pytest

from causalseg import tensor as T
from causalseg import train
from causalseg.config import ModelConfig, TrainConfig
from causalseg.data import SampleRecord, generate_synthetic
from causalseg.model import SegModel
from causalseg.train import (
    METRICS_COLUMNS,
    SGD,
    TrainingError,
    ablate_k,
    ablate_modules,
    compute_losses,
    cosine_lr,
    evaluate_model,
    fit,
    gradient_check,
    load_dataset,
    predict,
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
        leaves = real_backward(loss)
        for grad in leaves.values():
            grad.flat[0] = np.inf
        return leaves

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
    out = model.forward(images, masks, training=True, rng=derive_rng(0, "z"))
    return compute_losses(out, masks, cfg).values()


def test_loss_parts_follow_variant():
    plain = _forward_losses(False, False)
    assert plain["kl"] == 0.0 and plain["usd"] == 0.0
    assert plain["total"] == pytest.approx(plain["bce"] + plain["dice"], rel=1e-6)

    full = _forward_losses(True, True)
    assert full["kl"] != 0.0 and full["usd"] != 0.0
    assert full["total"] == pytest.approx(
        full["bce"] + full["dice"] + full["kl"] + full["usd"], rel=1e-6)


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
    assert tuple(rows[0]) == METRICS_COLUMNS
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

    def save_then_crash_after_epoch_1(path, model, opt, epochs_done):
        if epochs_done == 2:
            raise _Abort  # epoch 1's CSV row is written, its checkpoint is not
        real_save(path, model, opt, epochs_done)

    resumed_csv, ckpt = tmp_path / "resumed.csv", tmp_path / "model.ckpt"
    monkeypatch.setattr(train, "save_training_state", save_then_crash_after_epoch_1)
    with pytest.raises(_Abort):
        fit(cfg, csv_path=resumed_csv, checkpoint_path=ckpt)
    monkeypatch.undo()
    assert len(resumed_csv.read_bytes().splitlines()) == 3  # header + epochs 0 and 1
    fit(cfg, csv_path=resumed_csv, checkpoint_path=ckpt, resume=ckpt)
    assert resumed_csv.read_bytes() == straight_csv.read_bytes()


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
    with pytest.raises(TrainingError, match="K=4"):
        fit(other, resume=ckpt)

    no_gsm = TrainConfig(**{**TINY, "use_gsm": False, "epochs": 5}).validate()
    with pytest.raises(TrainingError, match="config hash"):
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


DIVERGENT = dict(n_samples=16, size=16, batch=4, epochs=2, k=4, augment=False,
                 lr=1000.0, weight_decay=0.0, seed=0)


def test_fit_divergence_is_a_training_error():
    # lr=1e3 blows the weights up; the NaN then surfaces in the forward pass
    # (GSm sigma) or the evaluation, outside the loss/backward calls
    cfg = TrainConfig(**DIVERGENT).validate()
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match=r"epoch \d+"):
        fit(cfg)


@pytest.mark.parametrize("dropped", ["opt.", "meta.epoch"])
def test_restore_rejects_incomplete_checkpoint(tmp_path, dropped):
    cfg = TrainConfig(**TINY).validate()
    ckpt = tmp_path / "model.ckpt"
    fit(cfg, checkpoint_path=ckpt)
    stored = load_checkpoint(ckpt)
    key = next(name for name in stored.arrays if name.startswith(dropped))
    del stored.arrays[key]
    save_checkpoint(ckpt, stored.arrays, stored.k, stored.config_hash)
    longer = TrainConfig(**{**TINY, "epochs": 5}).validate()
    with pytest.raises(TrainingError, match=f"missing {key}"):
        fit(longer, resume=ckpt)


def test_checkpoint_written_every_epoch(tmp_path):
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    ckpt = tmp_path / "model.ckpt"
    fit(cfg, checkpoint_path=ckpt)
    stored = load_checkpoint(ckpt)
    assert stored.k == cfg.k
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


@pytest.mark.parametrize("use_gsm", [True, False])
def test_stochastic_predict_draws_do_not_depend_on_batch_size(use_gsm):
    cfg, model, images = _predict_case(use_gsm=use_gsm, use_cibm=True)
    one = predict(model, images, 1, rng=derive_rng(cfg.seed, "eval"))
    batched = predict(model, images, cfg.batch, rng=derive_rng(cfg.seed, "eval"))
    np.testing.assert_allclose(batched, one, rtol=1e-5, atol=1e-5)
    assert not np.allclose(one, predict(model, images, cfg.batch), rtol=1e-5, atol=1e-5)


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


# -- gradient audit ----------------------------------------------------------

def test_gradient_check_smoke():
    errors = gradient_check(k=4, size=16, batch=2, max_probes=4)
    assert set(errors) == {"bce", "dice", "kl", "usd", "total"}
    assert max(errors.values()) < 1e-4


# -- ablation drivers --------------------------------------------------------

def test_ablate_k_rows_and_determinism(tmp_path):
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = ablate_k(cfg, [4, 8], csv_path=path_a)
    ablate_k(cfg, [4, 8], csv_path=path_b)
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
    rows = ablate_k(cfg, [8])
    assert len(calls) == cfg.epochs  # one per epoch, none after the fit
    result = fit(cfg)
    _, mean = real_evaluate(result.model, result.test_records, cfg)
    assert rows == [{"k": 8, **mean}]


def test_ablate_modules_grid(tmp_path):
    cfg = TrainConfig(**{**TINY, "epochs": 2}).validate()
    rows = ablate_modules(cfg, seeds=(0,), csv_path=tmp_path / "m.csv")
    assert [r["variant"] for r in rows] == [
        "backbone", "backbone+gsm", "backbone+cibm", "backbone+gsm+cibm"]
    flags = {(bool(r["use_gsm"]), bool(r["use_cibm"])) for r in rows}
    assert flags == {(False, False), (True, False), (False, True), (True, True)}
    for row in rows:
        assert 0.0 <= row["dice"] <= 1.0
