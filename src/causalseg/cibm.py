"""Backdoor-intervention feature fusion.

Each decoder stage owns a learnable n x K logit matrix whose row softmax
gives simplex mixing weights over the K sampled confusion features.  The
mixed vector is added at every position of the stage feature, and the sum
is gated by per-channel sigmoid weights of the pair (feature, tiled
vector): conv3x3 -> gelu -> conv1x1 -> GAP -> sigmoid.  The conv3x3 of the
tiled half runs on a tile of at most 3x3 (``T.stretch_middle``), so no
full-size tile or concatenation is built.  One latent draw, a (B,K)
Tensor, is shared by every stage within a forward pass.  Everything is
batched: mixed vectors are (B,n) and stage features (B,n,H,W).
"""

import numpy as np

from . import tensor as T
from .layers import Conv2d


class MixingWeights:
    """Row-softmax simplex weights over K confusion features for one stage."""

    def __init__(self, reg: T.ParameterRegistry, stage, n, k, dtype=np.float32):
        # zero logits -> uniform mixture at init
        self.logits = reg.add(f"cibm.stage{stage}.omega_logits", np.zeros((n, k), dtype=dtype))
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

    def weights(self, feature: T.Tensor, mixed: T.Tensor) -> T.Tensor:
        """Gates of the pair concat([feature, tiled mixed]): (B,n,H,W), (B,n) -> (B,n)."""
        n, h, w = feature.shape[1:]
        kernel = self.conv3.weight
        own = T.conv2d(feature, T.narrow(kernel, 1, 0, n), self.conv3.bias)
        tile = T.repeat_spatial(mixed, min(h, 3), min(w, 3))
        tiled = T.stretch_middle(T.conv2d(tile, T.narrow(kernel, 1, n, n)), h, w)
        g = self.conv1(T.gelu(T.add(own, tiled)))
        return T.sigmoid(T.global_avg_pool(g))  # strictly inside (0,1)


def mix(weights: MixingWeights, z: T.Tensor) -> T.Tensor:
    """Omega x Z per sample: (B,K) latents -> (B,n)."""
    if z.shape[-1] != weights.k:
        raise T.ShapeError(f"mix: K mismatch {z.shape[-1]} vs {weights.k}")
    return T.matmul(z, T.transpose(weights.omega()))


def fuse(feature: T.Tensor, mixed: T.Tensor, gate: ChannelGate) -> T.Tensor:
    """Gate the sum of the stage feature and the mixed vector.

    feature: (B,n,H,W); mixed: (B,n).  Returns the same shape as ``feature``.
    """
    if feature.ndim != 4:
        raise T.ShapeError(f"fuse expects (B,n,H,W) features, got {feature.shape}")
    b, n = feature.shape[:2]
    if mixed.shape[-1] != n:
        raise T.ShapeError(f"fuse: mixed length {mixed.shape[-1]} != {n} channels")
    if mixed.ndim != 2 or mixed.shape[0] != b:
        raise T.ShapeError(f"fuse: mixed of shape {mixed.shape} for a batch of {b}")
    t = T.add(feature, T.reshape(mixed, (b, n, 1, 1)))
    s = gate.weights(feature, mixed)
    return T.mul(T.reshape(s, (b, n, 1, 1)), t)


class InterventionPipeline:
    """Per-stage mixing + gating sharing a single latent draw per pass."""

    def __init__(self, reg: T.ParameterRegistry, stage_channels, k, rng, dtype=np.float32):
        self.mixers = [MixingWeights(reg, s, n, k, dtype) for s, n in enumerate(stage_channels)]
        self.gates = [ChannelGate(reg, s, n, rng, dtype) for s, n in enumerate(stage_channels)]

    def hook(self, z: T.Tensor):
        """Decoder fusion hook closing over one shared (B,K) latent."""
        mixers, gates = self.mixers, self.gates

        def _fuse(stage: int, feature: T.Tensor) -> T.Tensor:
            return fuse(feature, mix(mixers[stage], z), gates[stage])

        return _fuse
