"""Intervention fusion: simplex weights, selection, gating, shared latents."""

import numpy as np
import pytest

from causalseg import cibm
from causalseg import tensor as T
from causalseg.config import ModelConfig
from causalseg.data import generate_synthetic
from causalseg.model import SegModel
from causalseg.rngs import derive_rng


def latent(values, dtype=np.float64):
    return T.Tensor(np.asarray(values, dtype=dtype))


def make_gate(n, seed=0, dtype=np.float32):
    reg = T.ParameterRegistry()
    return reg, cibm.ChannelGate(reg, 0, n, derive_rng(seed, "gate"), dtype)


class TestMixingWeights:
    def test_zero_init_is_uniform(self):
        reg = T.ParameterRegistry()
        weights = cibm.MixingWeights(reg, 0, n=3, k=4)
        np.testing.assert_array_equal(weights.omega().data, np.full((3, 4), 0.25))

    def test_rows_on_simplex_after_any_update(self):
        reg = T.ParameterRegistry()
        weights = cibm.MixingWeights(reg, 0, n=5, k=8)
        rng = np.random.default_rng(2)
        for _ in range(10):
            weights.logits.data[:] = rng.normal(scale=4.0, size=(5, 8)).astype(np.float32)
            omega = weights.omega().data
            np.testing.assert_allclose(omega.sum(axis=1), np.ones(5), atol=1e-6)
            assert np.all(omega >= 0.0)

    def test_one_hot_selection_exact(self):
        reg = T.ParameterRegistry()
        weights = cibm.MixingWeights(reg, 0, n=3, k=4)
        picks = [2, 0, 3]
        for row, k in enumerate(picks):
            weights.logits.data[row, k] = 1000.0
        z = latent([[1.5, -2.0, 0.25, 7.0]])
        out = cibm.mix(weights, z)
        np.testing.assert_array_equal(out.data, z.data[:, picks])

    def test_uniform_row_averages(self):
        reg = T.ParameterRegistry()
        weights = cibm.MixingWeights(reg, 0, n=2, k=4)
        z = latent([[1.0, 2.0, 3.0, 6.0]])
        np.testing.assert_allclose(cibm.mix(weights, z).data, [[3.0, 3.0]], atol=1e-12)

    def test_k_equals_one_repeats(self):
        reg = T.ParameterRegistry()
        weights = cibm.MixingWeights(reg, 0, n=4, k=1)
        out = cibm.mix(weights, latent([[2.5]]))
        np.testing.assert_array_equal(out.data, np.full((1, 4), 2.5))

    def test_batched_latents(self):
        reg = T.ParameterRegistry()
        weights = cibm.MixingWeights(reg, 0, n=3, k=2)
        weights.logits.data[:] = np.log(
            np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1]], dtype=np.float32))
        z = latent([[1.0, 3.0], [2.0, -2.0]])
        expected = z.data @ weights.omega().data.T
        np.testing.assert_allclose(cibm.mix(weights, z).data, expected, rtol=1e-6)

    def test_dimension_mismatch(self):
        reg = T.ParameterRegistry()
        weights = cibm.MixingWeights(reg, 0, n=2, k=3)
        with pytest.raises(T.ShapeError, match="K mismatch"):
            cibm.mix(weights, latent([[1.0, 2.0]]))
        with pytest.raises(T.ShapeError):
            cibm.mix(weights, latent([1.0, 2.0, 3.0]))  # unbatched latents

    def test_gradient_reaches_logits_and_z(self):
        reg = T.ParameterRegistry()
        weights = cibm.MixingWeights(reg, 0, n=2, k=3)
        z = latent([[1.0, -4.0, 2.0]])
        z.requires_grad = True
        T.backward(T.tsum(cibm.mix(weights, z)))
        assert np.any(weights.logits.grad != 0.0)
        assert np.all(np.isfinite(z.grad)) and np.any(z.grad != 0.0)


class TestFuse:
    def test_shape_preserved(self):
        reg, gate = make_gate(4, seed=1)
        rng = np.random.default_rng(0)
        feature = T.Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))
        mixed = T.Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        assert cibm.fuse(feature, mixed, gate).shape == (2, 4, 6, 6)

    def test_neutral_intervention(self):
        # mixed = 0 and an S-path forced open leaves the feature unchanged
        reg, gate = make_gate(3, seed=2)
        gate.conv1.weight.data[:] = 0.0
        gate.conv1.bias.data[:] = 20.0
        rng = np.random.default_rng(1)
        feature = T.Tensor(rng.normal(size=(1, 3, 4, 4)).astype(np.float32))
        mixed = T.Tensor(np.zeros((1, 3), dtype=np.float32))
        out = cibm.fuse(feature, mixed, gate)
        np.testing.assert_allclose(out.data, feature.data, atol=1e-4)

    def test_closed_gate_zeroes_output(self):
        reg, gate = make_gate(3, seed=3)
        gate.conv1.weight.data[:] = 0.0
        gate.conv1.bias.data[:] = -20.0
        rng = np.random.default_rng(4)
        feature = T.Tensor(rng.normal(size=(1, 3, 4, 4)).astype(np.float32))
        mixed = T.Tensor(rng.normal(size=(1, 3)).astype(np.float32))
        out = cibm.fuse(feature, mixed, gate)
        np.testing.assert_allclose(out.data, np.zeros((1, 3, 4, 4)), atol=1e-4)

    def test_gate_strictly_inside_unit_interval(self):
        reg, gate = make_gate(5, seed=5)
        rng = np.random.default_rng(6)
        feature = T.Tensor(rng.normal(size=(2, 5, 4, 4)).astype(np.float32))
        mixed = T.Tensor(rng.normal(size=(2, 5)).astype(np.float32))
        s = gate.weights(feature, mixed).data
        assert s.shape == (2, 5) and np.all(s > 0.0) and np.all(s < 1.0)

    def test_channel_mismatch(self):
        reg, gate = make_gate(3, seed=7)
        feature = T.Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        with pytest.raises(T.ShapeError, match="mixed length"):
            cibm.fuse(feature, T.Tensor(np.zeros((1, 5), dtype=np.float32)), gate)

    def test_gradient_matches_finite_differences(self):
        reg = T.ParameterRegistry()
        rng = derive_rng(11, "fd")
        weights = cibm.MixingWeights(reg, 0, n=2, k=3, dtype=np.float64)
        gate = cibm.ChannelGate(reg, 0, 2, rng, dtype=np.float64)
        weights.logits.data[:] = rng.normal(size=(2, 3))
        feat_arr = rng.normal(size=(1, 2, 4, 4))
        z_arr = rng.normal(size=(1, 3))

        def f(params):
            feature, z = params
            mixed = cibm.mix(weights, z)
            return T.tmean(T.mul(cibm.fuse(feature, mixed, gate), cibm.fuse(feature, mixed, gate)))

        feature = T.Tensor(feat_arr, requires_grad=True)
        z = T.Tensor(z_arr, requires_grad=True)
        assert T.finite_diff_check(f, [feature, z]) < 1e-6

    def test_all_parameters_receive_finite_gradients(self):
        reg = T.ParameterRegistry()
        pipe = cibm.InterventionPipeline(reg, stage_channels=(4, 2), k=3, rng=derive_rng(12))
        hook = pipe.hook(latent([[0.5, -1.0, 2.0]], dtype=np.float32))
        rng = np.random.default_rng(13)
        total = None
        for stage, n in enumerate((4, 2)):
            feature = T.Tensor(rng.normal(size=(1, n, 4, 4)).astype(np.float32))
            out = T.tsum(T.mul(hook(stage, feature), hook(stage, feature)))
            total = out if total is None else T.add(total, out)
        T.backward(total)
        for name, t in reg.tensors.items():
            assert np.all(np.isfinite(t.grad)), name


def concat_fuse(feature, mixed, gate):
    """``fuse`` in its defining form: the gate convolves the concatenation
    of the feature and the full-size tile of the mixed vector."""
    b, n, h, w = feature.shape
    rep = T.repeat_spatial(mixed, h, w)
    pair = T.concat([feature, rep], axis=1)
    s = T.sigmoid(T.global_avg_pool(gate.conv1(T.gelu(gate.conv3(pair)))))
    return T.mul(T.reshape(s, (b, n, 1, 1)), T.add(feature, rep))


class TestClosedFormGate:
    @pytest.mark.parametrize("h, w", [(2, 2), (3, 3), (4, 6), (8, 8)])
    def test_matches_the_concatenated_reference(self, h, w):
        n = 3
        reg, gate = make_gate(n, seed=21, dtype=np.float64)
        rng = np.random.default_rng(22)
        gate.conv3.bias.data[:] = rng.normal(size=n)
        feature_arr = rng.normal(size=(2, n, h, w))
        mixed_arr = rng.normal(size=(2, n))
        probe = T.Tensor(rng.normal(size=(2, n, h, w)))
        results = []
        for fuse in (cibm.fuse, concat_fuse):
            reg.zero_grad()
            feature = T.Tensor(feature_arr, requires_grad=True)
            mixed = T.Tensor(mixed_arr, requires_grad=True)
            out = fuse(feature, mixed, gate)
            T.backward(T.tsum(T.mul(out, probe)))
            results.append({"out": out.data, "feature": feature.grad, "mixed": mixed.grad,
                            **{name: t.grad.copy() for name, t in reg.tensors.items()}})
        closed, reference = results
        assert "cibm.stage0.gate3.weight" in closed and "cibm.stage0.gate3.bias" in closed
        for key, value in reference.items():
            np.testing.assert_allclose(closed[key], value, rtol=0, atol=1e-12, err_msg=key)

    def test_no_full_resolution_2n_channel_conv_in_the_model(self, monkeypatch):
        # the gain: every CIBM gate convolves n channels at full size and its
        # tiled half only on a tile of at most 3x3
        size = 32
        model = SegModel(ModelConfig(k=4, size=size, use_gsm=True, use_cibm=True), seed=0)
        records = generate_synthetic(2, size, 0)
        images = np.stack([r.image for r in records]).astype(np.float32)
        masks = np.stack([r.mask for r in records]).astype(np.float32)
        inputs = []
        conv2d = T.conv2d

        def spy(x, kernel, bias=None):
            inputs.append(x.shape[1:])
            return conv2d(x, kernel, bias)

        monkeypatch.setattr(T, "conv2d", spy)
        model.forward(images, masks, training=True, rng=derive_rng(0, "eps"))
        depth = model.backbone.depth
        for stage, n in enumerate(model.backbone.stage_channels):
            res = size >> (depth - 1 - stage)
            assert (2 * n, res, res) not in inputs, stage
            assert (n, 3, 3) in inputs and (n, res, res) in inputs, stage


class TestPipeline:
    def test_shared_latent_across_stages(self):
        reg = T.ParameterRegistry()
        pipe = cibm.InterventionPipeline(reg, stage_channels=(3, 2), k=4, rng=derive_rng(14))
        z = latent([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
        hook = pipe.hook(z)
        rng = np.random.default_rng(15)
        outs = [hook(s, T.Tensor(rng.normal(size=(1, n, 4, 4)).astype(np.float32)))
                for s, n in enumerate((3, 2))]
        for out in outs:
            assert id(z) in T.ancestors(out)

    def test_parameter_names_are_per_stage(self):
        reg = T.ParameterRegistry()
        cibm.InterventionPipeline(reg, stage_channels=(3, 2), k=2, rng=derive_rng(17))
        names = set(reg.tensors)
        assert "cibm.stage0.omega_logits" in names
        assert "cibm.stage1.omega_logits" in names
        assert "cibm.stage1.gate3.weight" in names
