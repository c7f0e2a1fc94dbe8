"""Tiny convolutional encoder-decoder exposing per-stage decoder features.

Encoder stage s applies conv3x3 -> gelu -> avgpool2, halving resolution;
the decoder mirrors it with nearest-neighbor upsampling and encoder skip
concatenation, ending in a 1x1 conv to a single logit plane.  Every path
is batched: images are (N,1,H,W) and logits (N,1,H,W), with N = 1 for a
single image.  ``encode`` returns the list of per-stage feature maps.  A
per-stage fusion hook lets the intervention module rewrite decoder
features; the identity hook yields the plain conditional P(Y'|X) baseline.
"""

import numpy as np

from . import tensor as T
from .layers import Conv2d


class EncoderDecoder:
    """U-shaped net; decoder channel plan per stage is exposed for fusion."""

    def __init__(self, reg: T.ParameterRegistry, channels, rng, dtype=np.float32, name="backbone"):
        self.depth = len(channels)
        self.enc = []
        c_prev = 1
        for s, c in enumerate(channels):
            self.enc.append(Conv2d(reg, f"{name}.enc{s}", c_prev, c, 3, rng, dtype))
            c_prev = c
        # decoder: upsample, concat skip (when one exists), conv3x3, gelu
        self.dec = []
        self.stage_channels = []
        c_run = channels[-1]
        for s in range(self.depth):
            skip = channels[self.depth - 2 - s] if s < self.depth - 1 else 0
            c_out = skip if skip else c_run
            self.dec.append(Conv2d(reg, f"{name}.dec{s}", c_run + skip, c_out, 3, rng, dtype))
            self.stage_channels.append(c_out)
            c_run = c_out
        self.head = Conv2d(reg, f"{name}.head", c_run, 1, 1, rng, dtype)

    def encode(self, image: T.Tensor) -> list:
        """image: (N,1,H,W) batch, values in [0,1].  Returns the stage
        features; stage s has shape (N, C_s, H/2^(s+1), W/2^(s+1))."""
        if image.ndim != 4 or image.shape[1] != 1:
            raise T.ShapeError(f"encode expects (N,1,H,W), got {image.shape}")
        h, w = image.shape[2], image.shape[3]
        div = 1 << self.depth
        if h % div or w % div:
            raise T.ShapeError(f"spatial dims {h}x{w} must be divisible by {div}")
        x = image
        stages = []
        for conv in self.enc:
            x = T.avgpool2(T.gelu(conv(x)))
            stages.append(x)
        return stages

    def decode(self, stages: list, hook=None) -> T.Tensor:
        """Run decoder stages on ``encode``'s features; ``hook(stage, feature)
        -> feature`` may rewrite each stage output, keeping its shape.
        Returns logits (N,1,H,W).
        """
        x = stages[-1]
        for s, conv in enumerate(self.dec):
            x = T.upsample_nearest2(x)
            skip_idx = self.depth - 2 - s
            if skip_idx >= 0:
                x = T.concat([x, stages[skip_idx]], axis=1)
            x = T.gelu(conv(x))
            if hook is not None:
                x = hook(s, x)
        return self.head(x)
