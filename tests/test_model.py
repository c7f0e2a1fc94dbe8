"""SegModel composition: ablation variants and latent plumbing."""

import numpy as np
import pytest

from causalseg import tensor as T
from causalseg.config import ModelConfig
from causalseg.data import generate_synthetic
from causalseg.model import SegModel
from causalseg.rngs import derive_rng


def _batch(n=2, size=32, seed=0):
    records = generate_synthetic(n, size, seed)
    images = np.stack([r.image for r in records]).astype(np.float32)
    masks = np.stack([r.mask for r in records]).astype(np.float32)
    return images, masks


CFG = dict(k=8, size=32)


def test_forward_shapes_all_variants():
    images, masks = _batch()
    for gsm in (False, True):
        for cibm in (False, True):
            model = SegModel(ModelConfig(use_gsm=gsm, use_cibm=cibm, **CFG), seed=0)
            out = model.forward(images, masks, training=True)
            assert out.logits.shape == (2, 1, 32, 32)
            assert out.pred.shape == (2, 1, 32, 32)
            assert np.isfinite(out.pred.data).all()
            assert (out.prior is not None) == gsm
            assert (out.posterior is not None) == gsm
            assert (out.latent is not None) == (gsm or cibm)


def test_backbone_identical_across_variants():
    # per-component init streams: adding heads must not shift backbone init
    plain = SegModel(ModelConfig(use_gsm=False, use_cibm=False, **CFG), seed=3)
    full = SegModel(ModelConfig(use_gsm=True, use_cibm=True, **CFG), seed=3)
    plain_arrays = plain.registry.named_arrays()
    full_arrays = full.registry.named_arrays()
    backbone_names = [n for n in plain_arrays if n.startswith("backbone.")]
    assert backbone_names
    for name in backbone_names:
        np.testing.assert_array_equal(plain_arrays[name], full_arrays[name])


def test_backbone_only_has_no_extra_params():
    plain = SegModel(ModelConfig(use_gsm=False, use_cibm=False, **CFG), seed=0)
    names = set(plain.registry.named_arrays())
    assert all(n.startswith("backbone.") for n in names)
    full = SegModel(ModelConfig(use_gsm=True, use_cibm=True, **CFG), seed=0)
    assert names < set(full.registry.named_arrays())


def test_inference_ignores_mask_head():
    # mask-side head is a training-only device: no posterior, and the
    # prediction graph never touches its parameters
    images, masks = _batch()
    model = SegModel(ModelConfig(use_gsm=True, use_cibm=True, **CFG), seed=0)
    out = model.forward(images, training=False)
    assert out.posterior is None
    pcb_ids = {id(t) for name, t in model.registry.tensors.items() if name.startswith("pcb.")}
    assert pcb_ids
    assert not (T.ancestors(out.logits) & pcb_ids)


def test_training_with_gsm_requires_masks():
    images, _ = _batch()
    model = SegModel(ModelConfig(use_gsm=True, use_cibm=False, **CFG), seed=0)
    with pytest.raises(ValueError, match="masks"):
        model.forward(images, training=True)


def test_deterministic_inference_default():
    # noise=None takes the distribution mean, so inference is a pure function
    images, _ = _batch()
    model = SegModel(ModelConfig(**CFG), seed=0)
    a = model.forward(images, training=False)
    b = model.forward(images, training=False)
    np.testing.assert_array_equal(a.pred.data, b.pred.data)


def test_stochastic_inference_differs():
    images, _ = _batch()
    model = SegModel(ModelConfig(**CFG), seed=0)
    a = model.forward(images, training=False, noise=derive_rng(1, "eval").standard_normal((2, 8)))
    b = model.forward(images, training=False, noise=derive_rng(2, "eval").standard_normal((2, 8)))
    assert not np.array_equal(a.pred.data, b.pred.data)


def test_frozen_eps_replays_forward():
    # the latent's only noise source is the caller's draw: two draws of one
    # stream give the same latent and the same prediction
    images, masks = _batch()
    model = SegModel(ModelConfig(**CFG), seed=0)
    a = model.forward(images, masks, training=True, noise=derive_rng(0, "eps").standard_normal((2, 8)))
    b = model.forward(images, masks, training=True, noise=derive_rng(0, "eps").standard_normal((2, 8)))
    mean = model.forward(images, masks, training=True)
    assert not np.array_equal(a.latent.data, mean.latent.data)
    np.testing.assert_array_equal(a.latent.data, b.latent.data)
    np.testing.assert_array_equal(a.pred.data, b.pred.data)


def test_mixer_only_variant_uses_fixed_source():
    # without the distribution heads the mixer draws from a unit Gaussian,
    # so the latent is noise-driven and carries no gradient into parameters
    images, masks = _batch()
    model = SegModel(ModelConfig(use_gsm=False, use_cibm=True, **CFG), seed=0)
    out = model.forward(images, masks, training=True, noise=derive_rng(0, "z").standard_normal((2, 8)))
    assert out.prior is None and out.latent is not None
    param_ids = {id(t) for t in model.registry.tensors.values()}
    assert not (T.ancestors(out.latent) & param_ids)


def test_latent_reaches_prediction_when_mixer_on():
    images, masks = _batch()
    model = SegModel(ModelConfig(use_gsm=True, use_cibm=True, **CFG), seed=0)
    out = model.forward(images, masks, training=True, noise=derive_rng(0, "z").standard_normal((2, 8)))
    assert id(out.latent) in T.ancestors(out.logits)


def test_latent_unused_without_mixer():
    images, masks = _batch()
    model = SegModel(ModelConfig(use_gsm=True, use_cibm=False, **CFG), seed=0)
    out = model.forward(images, masks, training=True, noise=derive_rng(0, "z").standard_normal((2, 8)))
    assert id(out.latent) not in T.ancestors(out.logits)


def test_rejects_bad_image_rank():
    model = SegModel(ModelConfig(**CFG), seed=0)
    with pytest.raises(T.ShapeError):
        model.forward(np.zeros((2, 3, 32, 32), dtype=np.float32), training=False)
