"""The benchmark's tracer (bench/tracer.py) still finds every binding it wraps.

The tracer wraps package functions by name, so a rename in the package
breaks the benchmark; this test catches that in the regular suite.
"""

import importlib
from pathlib import Path

import numpy as np

import causalseg.tensor as T
import causalseg.train as train
from causalseg.config import ModelConfig, TrainConfig
from causalseg.data import generate_synthetic
from causalseg.model import SegModel
from causalseg.rngs import derive_rng

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    before = (T.conv2d, train.fit, train.SGD.step)
    tracer.install("t")
    try:
        assert T.conv2d is not before[0] and train.fit is not before[1]
    finally:
        tracer.uninstall()
    assert (T.conv2d, train.fit, train.SGD.step) == before


def test_traced_full_forward_records_every_latent_span(monkeypatch):
    # the per-layer metrics of the latent path and the losses read 0, with
    # no error, if the model or compute_losses stops calling these bindings,
    # so a traced step must hit each
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    records = generate_synthetic(2, 16, 0)
    images = np.stack([r.image for r in records]).astype(np.float32)
    masks = np.stack([r.mask for r in records]).astype(np.float32)
    model = SegModel(ModelConfig(k=4, size=16), seed=0)
    tracer.install("t")
    try:
        out = model.forward(images, masks, training=True, rng=derive_rng(0, "z"))
        cfg = TrainConfig(k=4, size=16, n_samples=2)
        T.backward(train.compute_losses(out, masks[:, None], cfg)["total"])
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.table({"t"}).items()}
    for name in ("gsm.extract_prior", "gsm.extract_posterior", "gsm.sample",
                 "cibm.fuse", "cibm.mix", "gsm.kl_loss", "boundary.usd_batch",
                 "losses.bce_loss", "losses.dice_loss"):
        assert calls.get(name, 0) >= 1, name
