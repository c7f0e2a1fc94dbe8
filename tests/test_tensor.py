"""Tensor substrate: elementwise ops, conv, structure ops, backward, FD oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalseg import tensor as T


def brute_force_conv(x, kernel, pad):
    """Direct 4-loop cross-correlation oracle with zero padding."""
    n, c, h, w = x.shape
    o, _, k, _ = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, o, h, w), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for ci in range(c):
                        for di in range(k):
                            for dj in range(k):
                                acc += xp[ni, ci, i + di, j + dj] * kernel[oi, ci, di, dj]
                    out[ni, oi, i, j] = acc
    return out


class TestElementwise:
    def test_add(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_log_exp_inverse(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.01, 5.0, size=32)
        out = T.log(T.exp(T.Tensor(x)))
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_mul_grad_product_rule(self):
        a = T.Tensor(np.array(2.0), requires_grad=True)
        b = T.Tensor(np.array(3.0), requires_grad=True)
        T.backward(T.mul(a, b))
        assert a.grad == 3.0 and b.grad == 2.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2,\).*\(3,\)"):
            T.add(T.Tensor([1.0, 2.0]), T.Tensor([1.0, 2.0, 3.0]))

    def test_clamp_grad_passes_inside_only(self):
        x = T.Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        T.backward(T.tsum(T.clamp(x, -1.0, 1.0)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_div_grad(self):
        a = T.Tensor(np.array(6.0), requires_grad=True)
        b = T.Tensor(np.array(2.0), requires_grad=True)
        T.backward(T.div(a, b))
        assert a.grad == pytest.approx(0.5)
        assert b.grad == pytest.approx(-1.5)

    def test_broadcast_channel_bias(self):
        x = T.Tensor(np.zeros((2, 3, 4, 4)), requires_grad=True)
        bias = T.Tensor(np.ones((1, 3, 1, 1)), requires_grad=True)
        T.backward(T.tsum(T.add(x, bias)))
        assert bias.grad.shape == (1, 3, 1, 1)
        np.testing.assert_array_equal(bias.grad, np.full((1, 3, 1, 1), 32.0))


class TestActivations:
    def test_gelu_zero(self):
        assert T.gelu(T.Tensor(np.array(0.0))).item() == 0.0

    def test_gelu_exact_erf_form(self):
        x = np.array([-1.5, 0.3, 2.0])
        expected = x * 0.5 * (1 + np.array([math.erf(v / math.sqrt(2)) for v in x]))
        np.testing.assert_allclose(T.gelu(T.Tensor(x)).data, expected, rtol=1e-12)

    def test_sigmoid_zero(self):
        assert T.sigmoid(T.Tensor(np.array(0.0))).item() == pytest.approx(0.5)

    def test_softmax_uniform(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-7)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_sum_to_one(self, row):
        out = T.softmax(T.Tensor(np.array([row, row[::-1]], dtype=np.float64)), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


class TestConstruction:
    @pytest.mark.parametrize("data", [np.arange(3), np.array([True, False])])
    def test_non_float_input_becomes_float32(self, data):
        out = T.Tensor(data)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, data.astype(np.float32))


class TestStructure:
    def test_repeat_spatial(self):
        out = T.repeat_spatial(T.Tensor([[1.0, 2.0]]), 2, 2)
        np.testing.assert_array_equal(out.data, [[np.full((2, 2), 1.0), np.full((2, 2), 2.0)]])

    def test_global_avg_pool_constant(self):
        out = T.global_avg_pool(T.Tensor(np.full((1, 1, 4, 4), 3.5)))
        assert out.data.shape == (1, 1) and out.item() == pytest.approx(3.5)

    def test_unbatched_inputs_rejected(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones(3)))
        with pytest.raises(T.ShapeError):
            T.repeat_spatial(T.Tensor([1.0, 2.0]), 2, 2)
        with pytest.raises(T.ShapeError):
            T.global_avg_pool(T.Tensor(np.ones((1, 4, 4))))

    def test_upsample_then_avgpool_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4, 4))
        out = T.avgpool2(T.upsample_nearest2(T.Tensor(x)))
        np.testing.assert_allclose(out.data, x, rtol=1e-7)

    @pytest.mark.parametrize("h, w", [(1, 1), (2, 2), (3, 3), (5, 5), (1, 5), (5, 2), (3, 5), (2, 3)])
    def test_stretch_middle_repeats_the_middle_row_and_column(self, h, w):
        def index(size):
            return [0] + [1] * (size - 2) + [2] if size > 3 else list(range(size))

        rng = np.random.default_rng(20)
        tile = rng.normal(size=(2, 3, min(h, 3), min(w, 3)))
        out = T.stretch_middle(T.Tensor(tile), h, w)
        np.testing.assert_array_equal(out.data, tile[:, :, index(h)][:, :, :, index(w)])

    def test_stretch_middle_rejects_a_tile_of_the_wrong_size(self):
        with pytest.raises(T.ShapeError, match="does not stretch"):
            T.stretch_middle(T.Tensor(np.ones((1, 2, 3, 3))), 2, 5)
        with pytest.raises(T.ShapeError):
            T.stretch_middle(T.Tensor(np.ones((2, 3, 3))), 4, 4)

    def test_concat_and_narrow_roundtrip(self):
        a = T.Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        b = T.Tensor(np.zeros((1, 3, 4, 4)))
        cat = T.concat([a, b], axis=1)
        assert cat.shape == (1, 5, 4, 4)
        back = T.narrow(cat, 1, 0, 2)
        T.backward(T.tsum(back))
        np.testing.assert_array_equal(a.grad, np.ones((1, 2, 4, 4)))

    def test_concat_dimension_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.concat([T.Tensor(np.ones((1, 2, 4, 4))), T.Tensor(np.ones((1, 2, 3, 4)))], axis=1)

    def test_linear(self):
        w = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = T.Tensor(np.array([0.5, -0.5]))
        out = T.linear(T.Tensor(np.array([[1.0, 1.0]])), w, b)
        np.testing.assert_allclose(out.data, [[3.5, 6.5]])


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = T.conv2d(T.Tensor(x), T.Tensor(k))
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_1x1_scaling(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 1, 4, 4))
        out = T.conv2d(T.Tensor(x), T.Tensor(np.full((1, 1, 1, 1), 2.0)))
        np.testing.assert_allclose(out.data, 2.0 * x, rtol=1e-6)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 1, 5, 5))
        k = rng.normal(size=(1, 1, 3, 3))
        out = T.conv2d(T.Tensor(x), T.Tensor(k))
        np.testing.assert_allclose(out.data, brute_force_conv(x, k, pad=1), rtol=1e-6, atol=1e-12)

    def test_multichannel_matches_brute_force(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4, 4))
        k = rng.normal(size=(2, 3, 3, 3))
        out = T.conv2d(T.Tensor(x), T.Tensor(k))
        np.testing.assert_allclose(out.data, brute_force_conv(x, k, pad=1), rtol=1e-6, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(T.ShapeError, match="channel"):
            T.conv2d(T.Tensor(np.ones((1, 2, 4, 4))), T.Tensor(np.ones((1, 3, 3, 3))))

    def test_bias_shape_mismatch(self):
        with pytest.raises(T.ShapeError, match="bias"):
            T.conv2d(T.Tensor(np.ones((1, 2, 4, 4))), T.Tensor(np.ones((3, 2, 3, 3))),
                     T.Tensor(np.ones(2)))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_batched_non_square_matches_brute_force(self, k, dtype, with_bias, c_in=2):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, c_in, 5, 7)).astype(dtype)
        kern = rng.normal(size=(4, c_in, k, k)).astype(dtype)
        bias = rng.normal(size=4).astype(dtype) if with_bias else None
        out = T.conv2d(T.Tensor(x), T.Tensor(kern), None if bias is None else T.Tensor(bias))
        expected = brute_force_conv(x.astype(np.float64), kern.astype(np.float64), pad=(k - 1) // 2)
        if with_bias:
            expected += bias[None, :, None, None]
        assert out.dtype == dtype and out.shape == (3, 4, 5, 7)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out.data, expected, rtol=tol, atol=tol)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_one_input_channel_matches_brute_force(self, k, dtype, with_bias):
        # C=1 takes the broadcast tap product instead of a GEMM
        self.test_batched_non_square_matches_brute_force(k, dtype, with_bias, c_in=1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_input_kernel_and_bias_gradients_match_fd(self, k, c_in=2):
        rng = np.random.default_rng(9)
        x = T.Tensor(rng.normal(size=(3, c_in, 4, 5)))
        kern = T.Tensor(rng.normal(size=(3, c_in, k, k)))
        bias = T.Tensor(rng.normal(size=3))
        weights = T.Tensor(rng.normal(size=(3, 3, 4, 5)))

        def f(params):
            xp, kp, bp = params
            return T.tsum(T.mul(T.gelu(T.conv2d(xp, kp, bp)), weights))

        assert T.finite_diff_check(f, [x, kern, bias]) < 1e-6

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_input_channel_gradients_match_fd(self, k):
        self.test_input_kernel_and_bias_gradients_match_fd(k, c_in=1)

    @pytest.mark.parametrize("c_in", [1, 3])
    def test_no_tap_reads_a_neighbouring_sample(self, c_in):
        # samples 0 and 2 are all zeros, so any value from sample 1 that
        # leaked across the padding between samples would show in them
        rng = np.random.default_rng(11)
        x = np.zeros((3, c_in, 4, 6))
        x[1] = rng.normal(size=(c_in, 4, 6)) + 5.0
        kern = T.Tensor(rng.normal(size=(2, c_in, 3, 3)) + 1.0, requires_grad=True)
        bias = np.array([0.25, -1.5])
        xt = T.Tensor(x, requires_grad=True)
        out = T.conv2d(xt, kern, T.Tensor(bias))
        np.testing.assert_array_equal(out.data[[0, 2]], np.broadcast_to(bias[:, None, None], (2, 2, 4, 6)))
        # and the input gradient stays inside its sample
        g = np.zeros(out.shape)
        g[1] = rng.normal(size=g.shape[1:])
        out._backward(g)
        assert not xt.grad[[0, 2]].any() and xt.grad[1].any()


class TestBackward:
    def test_mean_square_grads(self):
        x = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        T.backward(T.tmean(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2 / 3, 4 / 3, 2.0], rtol=1e-7)

    def test_disconnected_parameter_grad_zero(self):
        used = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        unused = T.Tensor(np.array([5.0]), requires_grad=True)
        unused.zero_grad()
        T.backward(T.tsum(used))
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(T.ShapeError):
            T.backward(T.Tensor(np.ones(3), requires_grad=True))

    def test_composite_conv_gelu_mean_matches_fd(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float64))
        k = T.Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float64), requires_grad=True)

        def f(params):
            return T.tmean(T.gelu(T.conv2d(x, params[0])))

        assert T.finite_diff_check(f, [k]) < 1e-6

    def test_chain_rule_composition(self):
        # backward through exp(log(x)*2) equals manual chain product 2*exp(2*log x)/x
        x = T.Tensor(np.array(1.7), requires_grad=True)
        T.backward(T.exp(T.mul(T.log(x), T.Tensor(np.array(2.0)))))
        manual = 2.0 * math.exp(2.0 * math.log(1.7)) / 1.7
        assert x.grad == pytest.approx(manual, rel=1e-10)

    def test_grad_accumulates_over_reuse(self):
        x = T.Tensor(np.array(3.0), requires_grad=True)
        T.backward(T.add(T.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        assert x.grad == pytest.approx(7.0)

    def test_repeat_backward_adds_one_more_leaf_gradient(self):
        a = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        b = T.Tensor(np.array([4.0, 5.0, -6.0]), requires_grad=True)
        loss = T.tsum(T.mul(a, b))
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_array_equal(a.grad, 2 * b.data)
        np.testing.assert_array_equal(b.grad, 2 * a.data)

    def test_first_write_copies_the_incoming_gradient(self):
        # add passes its own gradient on unchanged to y and to a; y's later
        # += into a must not also write into y's or b's gradient
        a = T.Tensor(np.zeros(3), requires_grad=True)
        b = T.Tensor(np.zeros(3), requires_grad=True)
        y = T.add(a, b)
        T.backward(T.tsum(T.add(y, a)))
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_interior_gradients_freed_and_leaf_gradients_owned(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        pooled = T.avgpool2(x)
        feat = T.global_avg_pool(pooled)
        loss = T.tsum(T.mul(feat, w))
        T.backward(loss)
        for node in (pooled, feat, loss):
            assert node.grad is None
        for leaf in (x, w):
            assert leaf.grad.shape == leaf.shape and leaf.grad.dtype == np.float32
            assert leaf.grad.flags.writeable and leaf.grad.flags.owndata
        np.testing.assert_allclose(x.grad, np.broadcast_to(w.data[:, :, None, None] / 16, x.shape),
                                   rtol=1e-6)

    def test_wrongly_shaped_gradient_rejected(self):
        a = T.Tensor(np.ones((2, 3)), requires_grad=True)
        out = T.Tensor(a.data.sum(), requires_grad=True, _parents=(a,),
                       _backward=lambda g: a._accumulate(np.ones(3)))
        with pytest.raises(T.ShapeError, match=r"gradient of shape \(3,\) for a tensor of shape \(2, 3\)"):
            T.backward(out)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            x = T.Tensor(rng.normal(size=(1, 2, 4, 4)))
            k = T.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
            loss = T.tmean(T.sigmoid(T.conv2d(x, k)))
            T.backward(loss)
            return loss.data.copy(), k.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        p = T.Tensor(np.array(3.0), requires_grad=True)
        err = T.finite_diff_check(lambda ps: T.mul(ps[0], ps[0]), [p])
        assert err < 1e-8

    def test_zero_function(self):
        p = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = T.finite_diff_check(lambda ps: T.tsum(T.mul(ps[0], T.Tensor(np.zeros(2)))), [p])
        assert err == 0.0

    @pytest.mark.parametrize("max_probes", [0, -1])
    def test_probe_count_below_one_is_rejected(self, max_probes):
        p = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ValueError, match="max_probes must be at least 1"):
            T.finite_diff_check(lambda ps: T.tsum(ps[0]), [p], max_probes=max_probes)

    def test_softmax_fd(self):
        rng = np.random.default_rng(8)
        p = T.Tensor(rng.normal(size=(3, 5)).astype(np.float64), requires_grad=True)

        def f(params):
            s = T.softmax(params[0], axis=1)
            return T.tsum(T.mul(s, T.Tensor(np.arange(15, dtype=np.float64).reshape(3, 5))))

        assert T.finite_diff_check(f, [p]) < 1e-7

    def test_pool_and_upsample_fd(self):
        rng = np.random.default_rng(9)
        p = T.Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float64), requires_grad=True)
        w = T.Tensor(np.arange(32, dtype=np.float64).reshape(1, 2, 4, 4))

        def f(params):
            y = T.upsample_nearest2(T.avgpool2(params[0]))
            return T.tsum(T.mul(y, w))

        assert T.finite_diff_check(f, [p]) < 1e-8


    @pytest.mark.parametrize("h, w", [(1, 1), (2, 2), (3, 3), (5, 5), (1, 5), (5, 2), (2, 3), (5, 3)])
    def test_stretch_middle_fd(self, h, w):
        rng = np.random.default_rng(11)
        p = T.Tensor(rng.normal(size=(2, 2, min(h, 3), min(w, 3))), requires_grad=True)
        weights = T.Tensor(rng.normal(size=(2, 2, h, w)))

        def f(params):
            return T.tsum(T.mul(T.stretch_middle(params[0], h, w), weights))

        assert T.finite_diff_check(f, [p]) < 1e-8

    @pytest.mark.parametrize("op", [T.tsum, T.tmean])
    @pytest.mark.parametrize("axis", [None, 1, (0, 2)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_reductions_fd(self, op, axis, keepdims):
        rng = np.random.default_rng(10)
        p = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out_shape = np.sum(p.data, axis=axis, keepdims=keepdims).shape
        w = T.Tensor(rng.normal(size=out_shape))

        def f(params):
            return T.tsum(T.mul(op(params[0], axis=axis, keepdims=keepdims), w))

        assert T.finite_diff_check(f, [p]) < 1e-8


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = T.ParameterRegistry()
        reg.add("w", np.zeros(3))
        with pytest.raises(ValueError, match="duplicate"):
            reg.add("w", np.zeros(3))

    def test_zero_grad(self):
        reg = T.ParameterRegistry()
        p = reg.add("w", np.ones(3))
        reg.zero_grad()
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_add_returns_the_registered_learnable_tensor(self):
        reg = T.ParameterRegistry()
        p = reg.add("w", np.ones(3))
        assert isinstance(p, T.Tensor) and p.requires_grad
        assert reg.tensors == {"w": p}
