"""Encoder-decoder shape contracts, skip wiring, and fusion hook behavior."""

import numpy as np
import pytest

from causalseg import tensor as T
from causalseg.backbone import EncoderDecoder
from causalseg.rngs import derive_rng


def make_net(channels=(8, 16, 32), seed=0, dtype=np.float32):
    reg = T.ParameterRegistry()
    net = EncoderDecoder(reg, channels, derive_rng(seed, "net"), dtype)
    return reg, net


class TestShapes:
    def test_single_sample_round_trip(self):
        reg, net = make_net()
        image = T.Tensor(np.random.default_rng(0).random((1, 1, 32, 32), dtype=np.float32))
        feats = net.encode(image)
        assert [f.shape for f in feats] == [(1, 8, 16, 16), (1, 16, 8, 8), (1, 32, 4, 4)]
        logits = net.decode(feats)
        assert logits.shape == (1, 1, 32, 32)

    def test_batch_round_trip(self):
        reg, net = make_net()
        images = T.Tensor(np.random.default_rng(1).random((4, 1, 32, 32), dtype=np.float32))
        logits = net.decode(net.encode(images))
        assert logits.shape == (4, 1, 32, 32)

    def test_stage_channel_plan(self):
        reg, net = make_net((8, 16, 32))
        assert net.stage_channels == [16, 8, 8]

    def test_indivisible_size_rejected(self):
        reg, net = make_net()
        with pytest.raises(T.ShapeError, match="divisible"):
            net.encode(T.Tensor(np.zeros((1, 1, 20, 20), dtype=np.float32)))

    def test_wrong_rank_rejected(self):
        reg, net = make_net()
        with pytest.raises(T.ShapeError):
            net.encode(T.Tensor(np.zeros((3, 2, 32, 32), dtype=np.float32)))
        with pytest.raises(T.ShapeError):
            net.encode(T.Tensor(np.zeros((1, 32, 32), dtype=np.float32)))


class TestHooks:
    def test_identity_hook_matches_plain_decode(self):
        reg, net = make_net(seed=2)
        image = T.Tensor(np.random.default_rng(2).random((2, 1, 16, 16), dtype=np.float32))
        feats = net.encode(image)
        plain = net.decode(feats)
        hooked = net.decode(feats, hook=lambda s, x: x)
        np.testing.assert_array_equal(plain.data, hooked.data)

    def test_hook_sees_every_stage(self):
        reg, net = make_net(seed=3)
        seen = []

        def spy(stage, x):
            seen.append((stage, x.shape))
            return x

        image = T.Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32))
        net.decode(net.encode(image), hook=spy)
        assert [s for s, _ in seen] == [0, 1, 2]
        assert [shape[1] for _, shape in seen] == net.stage_channels


class TestGradients:
    def test_all_parameters_reachable(self):
        reg, net = make_net((4, 8), seed=5)
        image = T.Tensor(np.random.default_rng(5).random((1, 1, 8, 8), dtype=np.float32))
        logits = net.decode(net.encode(image))
        T.backward(T.tmean(T.mul(logits, logits)))
        for name, t in reg.tensors.items():
            assert np.all(np.isfinite(t.grad)), name

    def test_finite_difference_on_tiny_net(self):
        reg, net = make_net((2, 4), seed=6, dtype=np.float64)
        rng = np.random.default_rng(6)
        image_arr = rng.random((1, 1, 8, 8))

        def f(params):
            logits = net.decode(net.encode(T.Tensor(image_arr)))
            return T.tmean(T.mul(logits, logits))

        params = list(reg.tensors.values())
        assert T.finite_diff_check(f, params, max_probes=40, rng=rng) < 1e-6

    def test_deterministic_construction(self):
        reg_a, net_a = make_net(seed=7)
        reg_b, net_b = make_net(seed=7)
        assert list(reg_a.tensors) == list(reg_b.tensors)
        for ta, tb in zip(reg_a.tensors.values(), reg_b.tensors.values()):
            np.testing.assert_array_equal(ta.data, tb.data)


class TestOverfit:
    def test_single_image_memorization(self):
        # the plain encoder-decoder must drive train Dice to 0.99 on one
        # image well inside 2000 steps; converges around step 75 in practice
        from causalseg.config import TrainConfig
        from causalseg.data import generate_synthetic
        from causalseg.losses import metrics
        from causalseg.model import SegModel
        from causalseg.train import SGD, compute_losses

        rec = generate_synthetic(1, 32, seed=0)[0]
        images = rec.image[None, None].astype(np.float32)
        masks = rec.mask[None, None].astype(np.float32)
        cfg = TrainConfig(k=16, size=32, use_gsm=False, use_cibm=False,
                          n_samples=2, lr=0.1, weight_decay=0.0,
                          augment=False).validate()
        model = SegModel(cfg.model_config(), seed=0)
        opt = SGD(model.registry, cfg.momentum, cfg.weight_decay)
        best = 0.0
        for step in range(2000):
            out = model.forward(images, masks, training=True)
            model.registry.zero_grad()
            T.backward(compute_losses(out, masks, cfg)["total"])
            opt.step(cfg.lr)
            best = metrics(out.pred.data[:, 0], masks[:, 0])[0].dice
            if best >= 0.99:
                break
        assert best >= 0.99, f"dice only reached {best:.4f} after 2000 steps"
        assert step < 200  # regression guard: convergence got much slower
