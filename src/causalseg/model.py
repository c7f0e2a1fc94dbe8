"""Segmentation model assembly: backbone plus optional GSm and CIBM branches.

The latent confusion features, one (B,K) Tensor per forward, are sampled
from the image-side prior head with the caller's standard-normal noise; the
mask-side posterior head exists only to constrain that prior with a KL term
during training and is never evaluated at inference.  With CIBM alone (no
learned prior) the latents come from a fixed standard normal.
"""

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .backbone import EncoderDecoder
from .cibm import InterventionPipeline
from .config import BACKBONE_CHANNELS, ModelConfig
from .gsm import DistributionHead, GaussianSet, extract_posterior, extract_prior, sample
from .rngs import derive_rng


@dataclass
class ForwardResult:
    logits: T.Tensor
    pred: T.Tensor
    prior: Optional[GaussianSet]
    posterior: Optional[GaussianSet]
    latent: Optional[T.Tensor]


class SegModel:
    """Owns the parameter registry; component inits use independent streams
    so the backbone starts identically across ablation variants."""

    def __init__(self, config: ModelConfig, seed: int, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.registry = T.ParameterRegistry()
        self.backbone = EncoderDecoder(
            self.registry, BACKBONE_CHANNELS, derive_rng(seed, "init", "backbone"), dtype)
        self.gdeb = self.pcb = self.pipeline = None
        if config.use_gsm:
            self.gdeb = DistributionHead(
                self.registry, "gdeb", config.k, derive_rng(seed, "init", "gdeb"), dtype=dtype)
            self.pcb = DistributionHead(
                self.registry, "pcb", config.k, derive_rng(seed, "init", "pcb"), dtype=dtype)
        if config.use_cibm:
            self.pipeline = InterventionPipeline(
                self.registry, self.backbone.stage_channels, config.k,
                derive_rng(seed, "init", "cibm"), dtype)

    def _as_batch(self, arr) -> T.Tensor:
        data = np.asarray(arr, dtype=self.dtype)
        if data.ndim == 3:
            data = data[:, None]
        if data.ndim != 4 or data.shape[1] != 1:
            raise T.ShapeError(f"expected (B,H,W) or (B,1,H,W), got {data.shape}")
        return T.Tensor(data)

    def forward(self, images, masks=None, *, training: bool, noise=None) -> ForwardResult:
        """images: (B,1,H,W) or (B,H,W); masks required when training with GSm.

        ``noise`` is the latent's (B,K) standard-normal draw; with
        ``noise=None`` the latent is the distribution mean.  With
        ``training=False`` no graph is kept: the outputs are values only.
        """
        with nullcontext() if training else T.no_graph():
            x = images if isinstance(images, T.Tensor) else self._as_batch(images)
            batch = x.shape[0]
            stages = self.backbone.encode(x)

            prior = posterior = latent = None
            if self.config.use_gsm:
                prior = extract_prior(x, self.gdeb)
                if training:
                    if masks is None:
                        raise ValueError("training with GSm needs ground-truth masks for the posterior")
                    posterior = extract_posterior(self._as_batch(masks), self.pcb)
                latent = sample(prior, noise)
            elif self.config.use_cibm:
                fixed = GaussianSet.standard((batch, self.config.k), dtype=self.dtype)
                latent = sample(fixed, noise)

            hook = self.pipeline.hook(latent) if self.pipeline is not None else None
            logits = self.backbone.decode(stages, hook)
            return ForwardResult(logits=logits, pred=T.sigmoid(logits), prior=prior,
                                 posterior=posterior, latent=latent)
