#!/usr/bin/env python3
"""Desk-scale benchmark on 256 confounded samples, plus diagnostic dumps.

Trains the full model (distribution heads + intervention mixer), evaluates
per-image metrics on the held-out split, and emits entropy maps and
boundary-band visualizations for the first few test records.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from causalseg.boundary import boundary_band, sobel_magnitude, uncertainty_map
from causalseg.config import TrainConfig
from causalseg.data import write_pgm
from causalseg.losses import entropy_map
from causalseg.tensor import Tensor
from causalseg.train import evaluate_model, fit, predict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/benchmark", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--n-samples", type=int, default=256)
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--dumps", type=int, default=4,
                        help="how many test records get diagnostic images")
    args = parser.parse_args()

    cfg = TrainConfig(n_samples=args.n_samples, size=args.size, batch=8,
                      epochs=args.epochs, k=args.k, augment=False,
                      lr=0.05, weight_decay=0.0, schedule="cosine",
                      seed=args.seed).validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = fit(cfg, csv_path=out / "metrics.csv",
                 checkpoint_path=out / "model.ckpt", log=print)
    per_image, mean = evaluate_model(result.model, result.test_records, cfg)

    with open(out / "test_metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=("stem", "dice", "iou", "fdr", "auc"))
        writer.writeheader()
        for rec, m in zip(result.test_records, per_image):
            writer.writerow({"stem": rec.stem, "dice": m.dice, "iou": m.iou,
                             "fdr": m.fdr, "auc": m.auc})
        writer.writerow({"stem": "mean", **mean})

    dump_dir = out / "diagnostics"
    dump_dir.mkdir(exist_ok=True)
    dumped = result.test_records[:args.dumps]
    preds = predict(result.model, [rec.image for rec in dumped], cfg.batch)
    for rec, pred in zip(dumped, preds):
        band = boundary_band(rec.mask, cfg.band_width)
        edges = sobel_magnitude(rec.mask)
        write_pgm(dump_dir / f"{rec.stem}.image.pgm", rec.image)
        write_pgm(dump_dir / f"{rec.stem}.pred.pgm", pred.astype(np.float64))
        write_pgm(dump_dir / f"{rec.stem}.entropy.pgm", entropy_map(pred))
        write_pgm(dump_dir / f"{rec.stem}.band.pgm", band.band.astype(np.float64))
        write_pgm(dump_dir / f"{rec.stem}.sobel.pgm", edges / max(edges.max(), 1.0))
        v = uncertainty_map(Tensor(pred[None, None].astype(np.float64)),
                            band.band[None, None]).data[0, 0]
        write_pgm(dump_dir / f"{rec.stem}.uncertainty.pgm", v / max(v.max(), 1e-12))

    print("\ntest means: " + ", ".join(f"{k} {v:.4f}" for k, v in mean.items()))
    print(f"artifacts in {out}/ (diagnostic PGMs in {dump_dir}/)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
