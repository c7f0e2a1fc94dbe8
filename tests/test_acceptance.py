"""Acceptance gate: one test per release criterion, one verdict line each.

These are the checks the package must pass before shipping; each test prints
a single PASS line with the measured numbers once its assertions hold.  The
two training criteria (7 and 8) dominate the runtime of the whole suite.
"""

import time

import numpy as np
import pytest

from causalseg import gsm
from causalseg import scm as scm_mod
from causalseg import tensor as T
from causalseg.cibm import MixingWeights
from causalseg.config import ModelConfig, TrainConfig
from causalseg.data import IMG_SUFFIX, MASK_SUFFIX, generate_synthetic, ingest, write_pgm
from causalseg.losses import entropy_map, metrics
from causalseg.model import SegModel
from causalseg.rngs import derive_rng
from causalseg.train import (
    MODULE_VARIANTS,
    SGD,
    ablate,
    compute_losses,
    evaluate_model,
    fit,
    gradient_check,
    restore_training_state,
    save_training_state,
)
from causalseg.checkpoint import load_checkpoint
from causalseg.cli import main


def test_01_gradient_fidelity():
    start = time.time()
    errors = gradient_check(k=8, size=32, batch=2, seed=0, max_probes=40, eps=1e-5)
    elapsed = time.time() - start
    assert set(errors) == {"bce", "dice", "kl", "usd", "total"}
    worst = max(errors.values())
    assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 gradient fidelity: PASS "
          f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_02_kl_properties():
    rng = derive_rng(0, "acceptance", "kl")
    worst_negative = 0.0
    worst_self = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        p = gsm.GaussianSet.from_arrays(rng.normal(size=k), rng.uniform(0.2, 4.0, size=k))
        q = gsm.GaussianSet.from_arrays(rng.normal(size=k), rng.uniform(0.2, 4.0, size=k))
        worst_negative = min(worst_negative, gsm.kl_loss(p, q).item())
        worst_self = max(worst_self, abs(gsm.kl_loss(p, p).item()))
    assert worst_negative >= -1e-9
    assert worst_self <= 1e-9
    std = gsm.GaussianSet.from_arrays([0.0], [1.0])
    shifted = gsm.GaussianSet.from_arrays([1.0], [1.0])
    closed = gsm.kl_loss(std, shifted).item()
    assert abs(closed - 0.5) <= 1e-9
    print(f"ACCEPTANCE 2 KL properties: PASS (min {worst_negative:.1e}, "
          f"self {worst_self:.1e}, closed-form err {abs(closed - 0.5):.1e})")


def test_03_reparameterization_moments():
    rng = derive_rng(0, "acceptance", "reparam")
    n = 100_000
    pairs = [(2.0, 3.0)] + [(float(rng.uniform(-3, 3)), float(rng.uniform(0.5, 3.0)))
                            for _ in range(10)]
    worst = 0.0
    for i, (mu, sig) in enumerate(pairs):
        gset = gsm.GaussianSet.from_arrays(np.full(n, mu), np.full(n, sig))
        z = gsm.sample(gset, rng=derive_rng(i, "acceptance", "draw")).data
        mean_err = abs(float(z.mean()) - mu)
        std_err = abs(float(z.std()) - sig)
        assert mean_err < 0.05, f"(mu={mu}, sigma={sig}): mean off by {mean_err}"
        assert std_err < 0.05, f"(mu={mu}, sigma={sig}): std off by {std_err}"
        worst = max(worst, mean_err, std_err)
    print(f"ACCEPTANCE 3 reparameterization: PASS "
          f"({n} draws x {len(pairs)} pairs, worst moment err {worst:.4f})")


def test_04_backdoor_oracle():
    rng = derive_rng(0, "acceptance", "scm")
    worst = 0.0
    for _ in range(100):
        model = scm_mod.random_scm(rng, n_c=int(rng.integers(2, 5)),
                                   n_x=int(rng.integers(2, 5)),
                                   n_y=int(rng.integers(2, 5)))
        for x in range(model.n_x):
            gap = np.abs(scm_mod.backdoor_adjust(model, x)
                         - scm_mod.intervene_enumerate(model, x)).max()
            worst = max(worst, float(gap))
    assert worst <= 1e-12

    example = scm_mod.worked_example()
    adjusted = scm_mod.backdoor_adjust(example, 1)
    enumerated = scm_mod.intervene_enumerate(example, 1)
    observed = scm_mod.observational(example, 1)
    np.testing.assert_allclose(adjusted, enumerated, atol=1e-15)
    assert abs(adjusted[1] - 0.705) <= 1e-12
    assert abs(observed[1] - 0.8305) <= 1e-4
    bias = observed[1] - adjusted[1]
    assert abs(bias - 0.1255) <= 1e-4
    print(f"ACCEPTANCE 4 backdoor oracle: PASS (100 SCMs, max gap {worst:.1e}; "
          f"worked example 0.705 vs {observed[1]:.4f}, bias {bias:.4f})")


def test_05_simplex_constraint():
    cfg = TrainConfig(n_samples=4, size=16, batch=4, epochs=1, k=8,
                      augment=False, lr=1e-2, weight_decay=0.01, seed=0).validate()
    records = generate_synthetic(4, 16, seed=0)
    images = np.stack([r.image for r in records]).astype(np.float32)
    masks = np.stack([r.mask for r in records]).astype(np.float32)
    model = SegModel(cfg.model_config(), seed=0)
    opt = SGD(model.registry, cfg.momentum, cfg.weight_decay)
    rng = derive_rng(0, "acceptance", "simplex")
    worst = 0.0
    for _ in range(50):
        out = model.forward(images, masks, training=True, rng=rng)
        model.registry.zero_grad()
        T.backward(compute_losses(out, masks, cfg)["total"])
        opt.step(cfg.lr)
        for mixer in model.pipeline.mixers:
            sums = mixer.omega().data.sum(axis=1)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
    assert worst <= 1e-6, f"row sums drifted by {worst:.2e}"

    reg = T.ParameterRegistry()
    weights = MixingWeights(reg, stage=0, n=3, k=8)
    weights.logits.data[0, 5] = 1000.0
    one_hot = np.zeros(8, dtype=np.float32)
    one_hot[5] = 1.0
    np.testing.assert_array_equal(weights.omega().data[0], one_hot)
    print(f"ACCEPTANCE 5 simplex constraint: PASS "
          f"(50 steps, worst row-sum drift {worst:.1e}; one-hot exact)")


def test_06_sobel_correctness():
    from causalseg.boundary import sobel_magnitude

    gx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
    gy = gx.T

    def brute(mask):
        out = np.zeros(mask.shape)
        for i in range(1, mask.shape[0] - 1):
            for j in range(1, mask.shape[1] - 1):
                win = mask[i - 1:i + 2, j - 1:j + 2]
                out[i, j] = np.hypot((win * gx).sum(), (win * gy).sum())
        return out

    rng = derive_rng(0, "acceptance", "sobel")
    for _ in range(50):
        mask = (rng.random((16, 16)) < rng.uniform(0.2, 0.8)).astype(np.float64)
        np.testing.assert_array_equal(sobel_magnitude(mask), brute(mask))
    assert not sobel_magnitude(np.ones((16, 16))).any()
    assert not sobel_magnitude(np.zeros((16, 16))).any()
    print("ACCEPTANCE 6 Sobel correctness: PASS "
          "(50 random masks exact, uniform masks all-zero)")


@pytest.mark.slow
def test_07_end_to_end_overfit():
    cfg = TrainConfig(n_samples=16, size=32, batch=8, epochs=300, k=16,
                      use_gsm=True, use_cibm=True, augment=False,
                      lr=0.07, weight_decay=0.0, schedule="constant",
                      seed=0).validate()
    start = time.time()
    result = fit(cfg, stop_at_dice=0.95)
    elapsed = time.time() - start
    _, train_mean = evaluate_model(result.model, result.train_records, cfg)
    epochs_used = result.history[-1].epoch + 1
    assert train_mean["dice"] >= 0.95, f"train dice {train_mean['dice']:.4f}"
    assert epochs_used <= 300
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    print(f"ACCEPTANCE 7 end-to-end overfit: PASS (train dice "
          f"{train_mean['dice']:.4f} at epoch {epochs_used}, {elapsed:.0f}s)")


@pytest.mark.slow
def test_08_ablation_direction():
    base = TrainConfig(n_samples=256, size=32, batch=8, epochs=60, k=16,
                       augment=False, lr=0.05, weight_decay=0.0,
                       schedule="cosine", seed=0)
    backbone, full = MODULE_VARIANTS[0], MODULE_VARIANTS[-1]
    rows = ablate(base, [backbone, full], seeds=(0, 1, 2))
    means = {"backbone": rows[0]["dice"], "full": rows[1]["dice"]}
    assert means["full"] >= means["backbone"], f"{means}"
    print(f"ACCEPTANCE 8 ablation direction: PASS (full {means['full']:.4f} "
          f">= backbone {means['backbone']:.4f} over 3 seeds)")


def test_09_k_ablation_harness(tmp_path):
    tiny = ["--n-samples", "6", "--size", "16", "--batch", "2", "--epochs", "2",
            "--no-augment", "--seed", "0"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["ablate-k", "--k-list", "4,16,64", "--out", str(path_a), *tiny]) == 0
    assert main(["ablate-k", "--k-list", "4,16,64", "--out", str(path_b), *tiny]) == 0

    import csv

    with open(path_a, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["4", "16", "64"]
    for row in rows:
        for metric in ("dice", "iou", "fdr", "auc"):
            assert np.isfinite(float(row[metric]))
    assert path_a.read_bytes() == path_b.read_bytes()
    print("ACCEPTANCE 9 K-ablation harness: PASS "
          "(3 rows, all metrics populated, byte-identical reruns)")


def test_10_entropy_map(tmp_path):
    constant = entropy_map(np.full((16, 16), 0.5))
    np.testing.assert_array_equal(constant, np.ones((16, 16)))
    binary = entropy_map((derive_rng(0, "ent").random((16, 16)) > 0.5).astype(float))
    np.testing.assert_array_equal(binary, np.zeros((16, 16)))

    write_pgm(tmp_path / f"ent{IMG_SUFFIX}", constant)
    write_pgm(tmp_path / f"ent{MASK_SUFFIX}", (constant > 0.5).astype(np.uint8) * 255)
    records, errors = ingest(tmp_path)
    assert errors == [] and len(records) == 1
    np.testing.assert_array_equal(records[0].image, constant)
    print("ACCEPTANCE 10 entropy map: PASS "
          "(0.5 -> 1.0, binary -> 0.0, PGM re-ingested exactly)")


def test_11_persistence_and_metric_identity(tmp_path):
    cfg = TrainConfig(n_samples=8, size=16, batch=4, epochs=2, k=8,
                      augment=False, lr=1e-2, weight_decay=0.0, seed=0).validate()
    result = fit(cfg)
    before_images, before_mean = evaluate_model(result.model, result.test_records, cfg)

    path = tmp_path / "model.ckpt"
    save_training_state(path, result.model, result.optimizer, cfg.epochs, cfg)
    fresh = SegModel(cfg.model_config(), seed=99)
    fresh_opt = SGD(fresh.registry, cfg.momentum, cfg.weight_decay)
    restore_training_state(load_checkpoint(path), fresh, fresh_opt)
    after_images, after_mean = evaluate_model(fresh, result.test_records, cfg)

    assert before_mean == after_mean
    for a, b in zip(before_images, after_images):
        assert a == b  # bit-identical per-image metrics

    rng = derive_rng(0, "acceptance", "identity")
    worst = 0.0
    for _ in range(100):
        pred = rng.random((12, 12))
        truth = (rng.random((12, 12)) < 0.5).astype(np.float64)
        [m] = metrics(pred[None], truth[None])
        worst = max(worst, abs(m.dice - 2.0 * m.iou / (1.0 + m.iou)))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 11 persistence: PASS (reload bit-identical; "
          f"dice/iou identity err {worst:.1e} over 100 pairs)")
