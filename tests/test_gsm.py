"""Gaussian self-modeling: KL closed forms, reparameterization, head contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalseg import gsm
from causalseg import tensor as T
from causalseg.rngs import derive_rng


def kl_univariate(mu_p, sig_p, mu_q, sig_q):
    """Closed-form KL(N(mu_p, sig_p^2) || N(mu_q, sig_q^2))."""
    return (math.log(sig_q / sig_p)
            + (sig_p ** 2 + (mu_p - mu_q) ** 2) / (2.0 * sig_q ** 2) - 0.5)


def make_head(name, k=4, seed=0):
    reg = T.ParameterRegistry()
    head = gsm.DistributionHead(reg, name, k, derive_rng(seed, "head", name))
    return reg, head


class TestKlLoss:
    def test_identical_sets_zero(self):
        p = gsm.GaussianSet.from_arrays([0.3, -1.0, 2.0], [0.5, 1.0, 2.0])
        q = gsm.GaussianSet.from_arrays([0.3, -1.0, 2.0], [0.5, 1.0, 2.0])
        assert abs(gsm.kl_loss(p, q).item()) <= 1e-9

    def test_standard_vs_shifted_is_half(self):
        p = gsm.GaussianSet.from_arrays([0.0], [1.0])
        q = gsm.GaussianSet.from_arrays([1.0], [1.0])
        assert abs(gsm.kl_loss(p, q).item() - 0.5) <= 1e-9

    def test_mean_over_components(self):
        # components contribute 0.5 and 0 -> mean 0.25
        p = gsm.GaussianSet.from_arrays([0.0, 1.0], [1.0, 1.0])
        q = gsm.GaussianSet.from_arrays([1.0, 1.0], [1.0, 1.0])
        assert abs(gsm.kl_loss(p, q).item() - 0.25) <= 1e-9

    def test_matches_univariate_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            mu = rng.normal(size=3)
            sig = rng.uniform(0.2, 3.0, size=3)
            mu2 = rng.normal(size=3)
            sig2 = rng.uniform(0.2, 3.0, size=3)
            expected = np.mean([kl_univariate(mu[i], sig[i], mu2[i], sig2[i])
                                for i in range(3)])
            got = gsm.kl_loss(gsm.GaussianSet.from_arrays(mu, sig),
                              gsm.GaussianSet.from_arrays(mu2, sig2)).item()
            assert abs(got - expected) < 1e-12

    def test_nonnegative_over_1000_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            p = gsm.GaussianSet.from_arrays(rng.normal(size=k), rng.uniform(0.05, 5.0, size=k))
            q = gsm.GaussianSet.from_arrays(rng.normal(size=k), rng.uniform(0.05, 5.0, size=k))
            assert gsm.kl_loss(p, q).item() >= -1e-9

    def test_k_mismatch_rejected(self):
        p = gsm.GaussianSet.from_arrays([0.0], [1.0])
        q = gsm.GaussianSet.from_arrays([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(T.ShapeError):
            gsm.kl_loss(p, q)

    def test_gradient_matches_finite_differences(self):
        raw = [T.Tensor(np.array([0.4, -0.7, 1.2]), requires_grad=True),
               T.Tensor(np.array([-0.2, 0.3, -1.0]), requires_grad=True),
               T.Tensor(np.array([0.9, 0.1, -0.4]), requires_grad=True),
               T.Tensor(np.array([0.0, -0.5, 0.6]), requires_grad=True)]

        def f(params):
            mu_p, ls_p, mu_q, ls_q = params
            prior = gsm.GaussianSet(mu_p, T.exp(ls_p))
            post = gsm.GaussianSet(mu_q, T.exp(ls_q))
            return gsm.kl_loss(prior, post)

        assert T.finite_diff_check(f, raw) < 1e-6


class TestSampling:
    def test_frozen_eps_replay_is_exact(self):
        # eps is frozen in the generator's stream: a fresh generator of the
        # same stream replays the draw bit for bit
        gset = gsm.GaussianSet.from_arrays([1.0, -2.0, 0.5], [0.3, 1.5, 2.0])
        first = gsm.sample(gset, rng=derive_rng(9, "latent"))
        again = gsm.sample(gset, rng=derive_rng(9, "latent"))
        assert not np.array_equal(first.data, gset.mu.data)
        np.testing.assert_array_equal(first.data, again.data)

    def test_affine_identity(self):
        gset = gsm.GaussianSet.from_arrays([1.0, -2.0], [0.5, 3.0])
        z = gsm.sample(gset, rng=derive_rng(3, "latent"))
        eps = derive_rng(3, "latent").standard_normal(2)
        np.testing.assert_allclose(z.data, eps * gset.sigma.data + gset.mu.data, atol=1e-15)

    def test_zero_eps_collapses_to_mean(self):
        gset = gsm.GaussianSet.from_arrays([4.0, -1.0], [2.0, 0.1])
        assert np.array_equal(gsm.sample(gset).data, gset.mu.data)

    def test_monte_carlo_statistics(self):
        rng = np.random.default_rng(2024)
        pairs = [(2.0, 3.0)] + [(float(rng.normal()), float(rng.uniform(0.5, 4.0)))
                                for _ in range(9)]
        for i, (mu, sig) in enumerate(pairs):
            # one (100000,) draw takes the stream's values that 100,000 scalar draws would
            gset = gsm.GaussianSet.from_arrays([mu] * 100_000, [sig] * 100_000)
            zs = gsm.sample(gset, rng=derive_rng(100 + i, "mc")).data
            assert abs(zs.mean() - mu) < 0.05 * max(1.0, sig)
            assert abs(zs.std() - sig) < 0.05 * max(1.0, sig)

    def test_gradient_coefficients(self):
        # dz/dmu = 1 and dz/dsigma = eps, exactly
        mu = T.Tensor(np.array([0.5, -1.5]), requires_grad=True)
        sigma = T.Tensor(np.array([1.2, 0.7]), requires_grad=True)
        gset = gsm.GaussianSet(mu, sigma)
        eps = derive_rng(5, "latent").standard_normal(2)
        T.backward(T.tsum(gsm.sample(gset, rng=derive_rng(5, "latent"))))
        np.testing.assert_array_equal(mu.grad, [1.0, 1.0])
        np.testing.assert_allclose(sigma.grad, eps, atol=1e-12)

    def test_sample_gradient_finite_differences(self):
        def f(params):
            # a fresh generator per call replays one draw on every probe
            mu, ls = params
            z = gsm.sample(gsm.GaussianSet(mu, T.exp(ls)), rng=derive_rng(6, "latent"))
            return T.tsum(T.mul(z, z))

        raw = [T.Tensor(np.array([0.4, -0.7, 1.2]), requires_grad=True),
               T.Tensor(np.array([-0.2, 0.3, -1.0]), requires_grad=True)]
        assert T.finite_diff_check(f, raw) < 1e-6


class TestGaussianSetValidation:
    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            gsm.GaussianSet.from_arrays([0.0], [0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(T.NonFiniteError):
            gsm.GaussianSet.from_arrays([np.nan], [1.0])

    def test_nan_sigma_is_nonfinite_not_nonpositive(self):
        with pytest.raises(T.NonFiniteError):
            gsm.GaussianSet.from_arrays([0.0], [np.nan])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            gsm.GaussianSet(T.Tensor([0.0, 0.0]), T.Tensor([1.0]))

    @given(st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_standard_set(self, k):
        gset = gsm.GaussianSet.standard((k,))
        assert np.all(gset.mu.data == 0.0) and np.all(gset.sigma.data == 1.0)


class TestHeads:
    def test_zeroed_linear_gives_standard_normals(self):
        reg, head = make_head("gdeb", k=4)
        head.linear.weight.data[:] = 0.0
        image = T.Tensor(np.random.default_rng(0).random((2, 1, 16, 16), dtype=np.float32))
        gset = gsm.extract_prior(image, head)
        np.testing.assert_array_equal(gset.mu.data, np.zeros((2, 4), dtype=np.float32))
        np.testing.assert_array_equal(gset.sigma.data, np.ones((2, 4), dtype=np.float32))

    def test_sigma_bounds_enforced(self):
        reg, head = make_head("gdeb", k=3)
        head.linear.weight.data[:] = 0.0
        head.linear.bias.data[3:] = [100.0, -100.0, 0.0]
        image = T.Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
        gset = gsm.extract_prior(image, head)
        np.testing.assert_allclose(
            gset.sigma.data[0], [np.exp(3.0), np.exp(-6.0), 1.0], rtol=1e-6)

    def test_output_shape_is_batch_by_k(self):
        reg, head = make_head("pcb", k=5)
        mask = T.Tensor(np.zeros((3, 1, 16, 16), dtype=np.float32))
        gset = gsm.extract_posterior(mask, head)
        assert gset.mu.shape == (3, 5) and gset.sigma.shape == (3, 5)

    def test_different_inputs_differ(self):
        reg, head = make_head("pcb", k=4, seed=77)
        zeros = T.Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
        ones = T.Tensor(np.ones((1, 1, 16, 16), dtype=np.float32))
        a = gsm.extract_posterior(zeros, head)
        b = gsm.extract_posterior(ones, head)
        assert not np.allclose(a.mu.data, b.mu.data)
