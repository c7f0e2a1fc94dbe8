"""Gaussian self-modeling of confusion factors.

An image-fed head (GDEB) predicts K prior 1-D Gaussians; a mask-fed head
(PCB, training only) predicts the K posterior Gaussians.  The latent is
drawn by reparameterization, z = eps * sigma + mu, with eps from the
caller's generator (or zero, giving the mean), so a fresh generator of the
same stream replays the same draw.  A KL term aligns prior to posterior,
averaged over the K components.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import Conv2d, Linear

LOG_SIGMA_MIN = -6.0
LOG_SIGMA_MAX = 3.0

HEAD_CHANNELS = (4, 8, 16)


@dataclass
class GaussianSet:
    """K independent 1-D Gaussians; mu/sigma are (K,) or (B, K) tensors."""

    mu: T.Tensor
    sigma: T.Tensor

    def __post_init__(self):
        if self.mu.shape != self.sigma.shape:
            raise T.ShapeError(f"GaussianSet got mu {self.mu.shape}, sigma {self.sigma.shape}")
        if not (np.isfinite(self.mu.data).all() and np.isfinite(self.sigma.data).all()):
            raise T.NonFiniteError("GaussianSet with non-finite mu/sigma")
        if not np.all(self.sigma.data > 0):
            raise ValueError("GaussianSet requires strictly positive sigma")

    @classmethod
    def from_arrays(cls, mu, sigma):
        return cls(T.Tensor(np.asarray(mu, dtype=np.float64)),
                   T.Tensor(np.asarray(sigma, dtype=np.float64)))

    @classmethod
    def standard(cls, shape, dtype=np.float32):
        return cls(T.Tensor(np.zeros(shape, dtype=dtype)), T.Tensor(np.ones(shape, dtype=dtype)))


class DistributionHead:
    """conv3x3->gelu->avgpool stack, GAP, then a linear map to 2K outputs;
    parameters are registered under ``name``."""

    def __init__(self, reg: T.ParameterRegistry, name, k, rng, dtype=np.float32):
        self.k = k
        self.convs = []
        c_prev = 1
        for s, c in enumerate(HEAD_CHANNELS):
            self.convs.append(Conv2d(reg, f"{name}.conv{s}", c_prev, c, 3, rng, dtype))
            c_prev = c
        self.linear = Linear(reg, f"{name}.linear", c_prev, 2 * k, rng, dtype)

    def distributions(self, x: T.Tensor) -> GaussianSet:
        """x: (N,1,H,W) -> K Gaussians per sample (mu, sigma as (N,K))."""
        h = x
        for conv in self.convs:
            h = T.avgpool2(T.gelu(conv(h)))
        out = self.linear(T.global_avg_pool(h))  # (N, 2K)
        mu = T.narrow(out, 1, 0, self.k)
        log_sigma = T.clamp(T.narrow(out, 1, self.k, self.k), LOG_SIGMA_MIN, LOG_SIGMA_MAX)
        return GaussianSet(mu, T.exp(log_sigma))


def extract_prior(image: T.Tensor, head: DistributionHead) -> GaussianSet:
    """The GDEB prior over the confounder, from the image."""
    return head.distributions(image)


def extract_posterior(mask: T.Tensor, head: DistributionHead) -> GaussianSet:
    """The PCB posterior, from the ground-truth mask; training only."""
    return head.distributions(mask)


def sample(gset: GaussianSet, rng=None) -> T.Tensor:
    """z = eps * sigma + mu with eps ~ N(0,1) per component from ``rng``.

    With rng=None eps is zero and the latent is the mean (deterministic
    inference).
    """
    shape = gset.mu.shape
    dtype = gset.mu.data.dtype
    eps = np.zeros(shape, dtype=dtype) if rng is None else rng.standard_normal(shape).astype(dtype)
    return T.add(T.mul(T.Tensor(eps), gset.sigma), gset.mu)


def kl_loss(prior: GaussianSet, posterior: GaussianSet) -> T.Tensor:
    """Mean over components of KL(N(mu_p, sigma_p^2) || N(mu_q, sigma_q^2)).

    Per component: log(sigma_q/sigma_p) + (sigma_p^2 + (mu_p - mu_q)^2)
    / (2 sigma_q^2) - 1/2.  Batched sets average over samples as well.
    """
    if prior.mu.shape != posterior.mu.shape:
        raise T.ShapeError(f"KL: shapes {prior.mu.shape} vs {posterior.mu.shape}")
    ratio = T.log(T.div(posterior.sigma, prior.sigma))
    var_p = T.mul(prior.sigma, prior.sigma)
    dmu = T.sub(prior.mu, posterior.mu)
    num = T.add(var_p, T.mul(dmu, dmu))
    den = T.mul(T.mul(posterior.sigma, posterior.sigma), T.Tensor(np.asarray(2.0, dtype=posterior.sigma.dtype)))
    per_comp = T.sub(T.add(ratio, T.div(num, den)), T.Tensor(np.asarray(0.5, dtype=prior.mu.dtype)))
    return T.tmean(per_comp)
