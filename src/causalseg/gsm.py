"""Gaussian self-modeling of confusion factors.

An image-fed head (role "gdeb") predicts K prior 1-D Gaussians; a mask-fed
head (role "pcb", training only) predicts the K posterior Gaussians.
Latents are drawn by reparameterization, z = eps * sigma + mu, with the
standard-normal draws recorded so a verification pass can replay them.
A KL term aligns prior to posterior, averaged over the K components.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import Conv2d, Linear

LOG_SIGMA_MIN = -6.0
LOG_SIGMA_MAX = 3.0

GDEB = "gdeb"
PCB = "pcb"

HEAD_CHANNELS = (4, 8, 16)


class InferenceModeError(RuntimeError):
    """The posterior head was invoked outside training."""


@dataclass
class GaussianSet:
    """K independent 1-D Gaussians; mu/sigma are (K,) or (B, K) tensors."""

    mu: T.Tensor
    sigma: T.Tensor
    k: int

    def __post_init__(self):
        if self.mu.shape != self.sigma.shape or self.mu.shape[-1] != self.k:
            raise T.ShapeError(
                f"GaussianSet K={self.k} got mu {self.mu.shape}, sigma {self.sigma.shape}")
        if not (np.isfinite(self.mu.data).all() and np.isfinite(self.sigma.data).all()):
            raise T.NonFiniteError("GaussianSet with non-finite mu/sigma")
        if not np.all(self.sigma.data > 0):
            raise ValueError("GaussianSet requires strictly positive sigma")

    @classmethod
    def from_arrays(cls, mu, sigma):
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        return cls(T.Tensor(mu), T.Tensor(sigma), k=mu.shape[-1])

    @classmethod
    def standard(cls, shape, dtype=np.float32):
        return cls(T.Tensor(np.zeros(shape, dtype=dtype)),
                   T.Tensor(np.ones(shape, dtype=dtype)), k=shape[-1])


@dataclass
class LatentSample:
    """Reparameterized confusion-feature draw and the eps it came from."""

    z: T.Tensor
    frozen_eps: np.ndarray


class DistributionHead:
    """conv3x3->gelu->avgpool stack, GAP, then a linear map to 2K outputs."""

    def __init__(self, reg: T.ParameterRegistry, role, k, rng,
                 channels=HEAD_CHANNELS, dtype=np.float32):
        if role not in (GDEB, PCB):
            raise ValueError(f"unknown head role {role!r}")
        self.role = role
        self.k = k
        self.convs = []
        c_prev = 1
        for s, c in enumerate(channels):
            self.convs.append(Conv2d(reg, f"{role}.conv{s}", c_prev, c, 3, rng, dtype))
            c_prev = c
        self.linear = Linear(reg, f"{role}.linear", c_prev, 2 * k, rng, dtype)

    def distributions(self, x: T.Tensor) -> GaussianSet:
        """x: (N,1,H,W) -> K Gaussians per sample (mu, sigma as (N,K))."""
        h = x
        for conv in self.convs:
            h = T.avgpool2(T.gelu(conv(h)))
        out = self.linear(T.global_avg_pool(h))  # (N, 2K)
        mu = T.narrow(out, 1, 0, self.k)
        log_sigma = T.clamp(T.narrow(out, 1, self.k, self.k), LOG_SIGMA_MIN, LOG_SIGMA_MAX)
        return GaussianSet(mu, T.exp(log_sigma), self.k)


def extract_prior(image: T.Tensor, head: DistributionHead, k: int) -> GaussianSet:
    if head.role != GDEB:
        raise ValueError(f"extract_prior needs a {GDEB!r} head, got {head.role!r}")
    if head.k != k:
        raise ValueError(f"head K={head.k} does not match configured K={k}")
    return head.distributions(image)


def extract_posterior(mask: T.Tensor, head: DistributionHead, k: int, *, training: bool) -> GaussianSet:
    if head.role != PCB:
        raise ValueError(f"extract_posterior needs a {PCB!r} head, got {head.role!r}")
    if not training:
        raise InferenceModeError("posterior head is training-only; inference must not touch it")
    if head.k != k:
        raise ValueError(f"head K={head.k} does not match configured K={k}")
    return head.distributions(mask)


def sample(gset: GaussianSet, rng=None, frozen_eps=None) -> LatentSample:
    """z = eps * sigma + mu; eps ~ N(0,1) per component, or replayed/zeroed.

    With rng=None and no frozen draw the latent collapses to the mean
    (deterministic inference).
    """
    shape = gset.mu.shape
    dtype = gset.mu.data.dtype
    if frozen_eps is not None:
        eps = np.asarray(frozen_eps, dtype=dtype)
        if eps.shape != shape:
            raise T.ShapeError(f"frozen eps shape {eps.shape} != {shape}")
    elif rng is not None:
        eps = rng.standard_normal(shape).astype(dtype)
    else:
        eps = np.zeros(shape, dtype=dtype)
    z = T.add(T.mul(T.Tensor(eps), gset.sigma), gset.mu)
    return LatentSample(z=z, frozen_eps=eps)


def kl_loss(prior: GaussianSet, posterior: GaussianSet) -> T.Tensor:
    """Mean over components of KL(N(mu_p, sigma_p^2) || N(mu_q, sigma_q^2)).

    Per component: log(sigma_q/sigma_p) + (sigma_p^2 + (mu_p - mu_q)^2)
    / (2 sigma_q^2) - 1/2.  Batched sets average over samples as well.
    """
    if prior.k != posterior.k:
        raise T.ShapeError(f"KL: prior K={prior.k} != posterior K={posterior.k}")
    if prior.mu.shape != posterior.mu.shape:
        raise T.ShapeError(f"KL: shapes {prior.mu.shape} vs {posterior.mu.shape}")
    ratio = T.log(T.div(posterior.sigma, prior.sigma))
    var_p = T.mul(prior.sigma, prior.sigma)
    dmu = T.sub(prior.mu, posterior.mu)
    num = T.add(var_p, T.mul(dmu, dmu))
    den = T.mul(T.mul(posterior.sigma, posterior.sigma), T.Tensor(np.asarray(2.0, dtype=posterior.sigma.dtype)))
    per_comp = T.sub(T.add(ratio, T.div(num, den)), T.Tensor(np.asarray(0.5, dtype=prior.mu.dtype)))
    return T.tmean(per_comp)
