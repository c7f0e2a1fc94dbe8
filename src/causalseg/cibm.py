"""Backdoor-intervention feature fusion.

Each decoder stage owns a learnable n x K logit matrix whose row softmax
gives simplex mixing weights over the K sampled confusion features.  The
mixed vector is tiled spatially, added to the stage feature, and the pair
is gated by per-channel sigmoid weights computed from their concatenation
(conv3x3 -> gelu -> conv1x1 -> GAP -> sigmoid).  One latent draw is shared
by every stage within a forward pass.  Everything is batched: latents are
(B,K), mixed vectors (B,n) and stage features (B,n,H,W).
"""

import numpy as np

from . import tensor as T
from .gsm import LatentSample
from .layers import Conv2d


class MixingWeights:
    """Row-softmax simplex weights over K confusion features for one stage."""

    def __init__(self, reg: T.ParameterRegistry, stage, n, k, dtype=np.float32):
        # zero logits -> uniform mixture at init
        self.logits = reg.add(f"cibm.stage{stage}.omega_logits", np.zeros((n, k), dtype=dtype))
        self.stage = stage
        self.n = n
        self.k = k

    def omega(self) -> T.Tensor:
        return T.softmax(self.logits, axis=1)


GATE_BIAS_INIT = 2.0


class ChannelGate:
    """Produces per-channel weights in (0,1)^n from the fused pair.

    The 1x1 bias starts positive so gates open near pass-through (S about
    0.88) and the fused stage does not attenuate features at init.
    """

    def __init__(self, reg: T.ParameterRegistry, stage, n, rng, dtype=np.float32):
        self.conv3 = Conv2d(reg, f"cibm.stage{stage}.gate3", 2 * n, n, 3, rng, dtype)
        self.conv1 = Conv2d(reg, f"cibm.stage{stage}.gate1", n, n, 1, rng, dtype)
        self.conv1.bias.data[:] = GATE_BIAS_INIT

    def weights(self, pair: T.Tensor) -> T.Tensor:
        h = self.conv1(T.gelu(self.conv3(pair)))
        return T.sigmoid(T.global_avg_pool(h))  # (B, n), strictly inside (0,1)


def mix(weights: MixingWeights, z: LatentSample) -> T.Tensor:
    """Omega x Z per sample: (B,K) latents -> (B,n)."""
    if z.z.shape[-1] != weights.k:
        raise T.ShapeError(f"mix: K mismatch {z.z.shape[-1]} vs {weights.k}")
    return T.matmul(z.z, T.transpose(weights.omega()))


def fuse(feature: T.Tensor, mixed: T.Tensor, gate: ChannelGate) -> T.Tensor:
    """Gate the sum of the stage feature and the tiled mixed vector.

    feature: (B,n,H,W); mixed: (B,n).  Returns the same shape as ``feature``.
    """
    if feature.ndim != 4:
        raise T.ShapeError(f"fuse expects (B,n,H,W) features, got {feature.shape}")
    b, n, h, w = feature.shape
    if mixed.shape[-1] != n:
        raise T.ShapeError(f"fuse: mixed length {mixed.shape[-1]} != {n} channels")
    rep = T.repeat_spatial(mixed, h, w)
    if rep.shape[0] != b:
        raise T.ShapeError(f"fuse: batch mismatch {rep.shape[0]} vs {b}")
    t = T.add(feature, rep)
    s = gate.weights(T.concat([feature, rep], axis=1))
    return T.mul(T.reshape(s, (b, n, 1, 1)), t)


class InterventionPipeline:
    """Per-stage mixing + gating sharing a single latent draw per pass."""

    def __init__(self, reg: T.ParameterRegistry, stage_channels, k, rng, dtype=np.float32):
        self.k = k
        self.mixers = [MixingWeights(reg, s, n, k, dtype) for s, n in enumerate(stage_channels)]
        self.gates = [ChannelGate(reg, s, n, rng, dtype) for s, n in enumerate(stage_channels)]

    def hook(self, z: LatentSample):
        """Decoder fusion hook closing over one shared latent sample."""
        mixers, gates = self.mixers, self.gates

        def _fuse(stage: int, feature: T.Tensor) -> T.Tensor:
            if stage >= len(mixers):
                raise T.ShapeError(f"no mixing weights for decoder stage {stage}")
            return fuse(feature, mix(mixers[stage], z), gates[stage])

        return _fuse
