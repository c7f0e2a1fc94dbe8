"""Command-line interface.

Subcommands cover dataset generation/ingestion, training with resume,
evaluation, the K and module ablations, a checkpoint's inspection dump
(per-record maps, omega CSVs and latent diagnostics), gradient checking,
and the discrete causal oracle with its random-model gap sweep.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import scm as scm_mod
from .boundary import boundary_band, sobel_magnitude, uncertainty_map
from .checkpoint import CheckpointError, load_checkpoint, write_atomic
from .scm import SCMError
from .config import ConfigError, TrainConfig, load_scm_config, load_train_config
from .data import (DatasetError, PgmError, export_dataset, generate_synthetic, ingest,
                   split_dataset, write_pgm)
from .losses import entropy_map
from .model import SegModel
from .tensor import Tensor
from .train import (METRIC_NAMES, MODULE_VARIANTS, SGD, TrainingError, ablate, diagnose,
                    evaluate_model, fit, gradient_check, load_dataset, predict,
                    restore_training_state, write_rows)


def _add_config_flags(parser, require_seed=False):
    """``--x`` for every TrainConfig field, ``--x/--no-x`` for the bools."""
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, required=require_seed,
                        help="run seed" + (" (required)" if require_seed else ""))
    for field in fields(TrainConfig):
        if field.name == "seed":
            continue
        flag = field.name.replace("_", "-")
        if field.type is bool:
            group = parser.add_mutually_exclusive_group()
            group.add_argument(f"--{flag}", dest=field.name, action="store_true", default=None)
            group.add_argument(f"--no-{flag}", dest=field.name, action="store_false", default=None)
        else:
            parser.add_argument(f"--{flag}", type=field.type, dest=field.name)


def _int_list(text: str) -> list:
    """argparse type: a nonempty comma-separated list of integers."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _int_at_least(low: int, what: str):
    """argparse type: an integer of at least ``low``, described as ``what``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


def _config_from_args(args) -> TrainConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(TrainConfig)}
    return load_train_config(args.config, overrides)


def _load_model(path) -> tuple[TrainConfig, SegModel]:
    ckpt = load_checkpoint(path)
    cfg = ckpt.config
    model = SegModel(cfg.model_config(), cfg.seed)
    restore_training_state(ckpt, model, SGD(model.registry, cfg.momentum, cfg.weight_decay))
    return cfg, model


def cmd_generate(args):
    records = generate_synthetic(args.n_samples, args.size, args.seed)
    export_dataset(records, args.out)
    tags = np.bincount([r.confounder_tag for r in records], minlength=3)
    print(f"wrote {len(records)} image/mask pairs to {args.out} "
          f"(confounder levels {tags[0]}/{tags[1]}/{tags[2]})")
    return 0


def cmd_ingest_check(args):
    records, errors = ingest(args.data)
    for path, message in errors:
        print(f"ERROR {path}: {message}")
    if not records and not errors:
        print(f"warning: no image/mask pairs in {args.data}")
    tagged = sum(rec.confounder_tag >= 0 for rec in records)
    print(f"{len(records)} valid pairs, {len(errors)} bad files ({tagged} with a confounder tag)")
    return 1 if errors else 0


def cmd_train(args):
    cfg = _config_from_args(args)
    out = Path(args.out)  # fit's first write, after the first epoch, makes it
    result = fit(cfg, csv_path=out / "metrics.csv", checkpoint_path=out / "model.ckpt",
                 resume=args.resume, log=print)
    final = result.history[-1].test if result.history else {}
    print(f"done: checkpoint {out / 'model.ckpt'}, metrics {out / 'metrics.csv'}")
    if final:
        print("final test metrics: " + ", ".join(f"{k} {v:.4f}" for k, v in final.items()))
    return 0


def cmd_evaluate(args):
    cfg, model = _load_model(args.checkpoint)
    # the held-out records of the split that ``fit`` trained and reported on
    _, records = split_dataset(load_dataset(cfg), cfg.split_fraction, cfg.seed)
    per_image, mean = evaluate_model(model, records, cfg)
    rows = [{"stem": rec.stem or str(i), **{name: getattr(m, name) for name in METRIC_NAMES}}
            for i, (rec, m) in enumerate(zip(records, per_image))]
    if args.out:
        write_rows(args.out, [*rows, {"stem": "mean", **mean}])
    print("mean: " + ", ".join(f"{k} {v:.4f}" for k, v in mean.items()))
    return 0


def cmd_ablate_k(args):
    return _ablate(args, [({"k": k}, {"k": k}) for k in args.k_list])


def cmd_ablate_modules(args):
    return _ablate(args, MODULE_VARIANTS, args.seeds)


def _ablate(args, variants, seeds=None):
    rows = ablate(_config_from_args(args), variants, seeds, csv_path=args.out, log=print)
    print(f"wrote {len(rows)} rows to {args.out}" if args.out else f"{len(rows)} rows")
    return 0


def cmd_gradcheck(args):
    out = gradient_check(k=args.k, size=args.size, seed=args.seed,
                         max_probes=args.max_probes)
    worst = max(out.values())
    for name, err in out.items():
        print(f"{name}: max relative gradient error {err:.3e}")
    print(f"worst {worst:.3e} ({'PASS' if worst <= args.tolerance else 'FAIL'} "
          f"at tolerance {args.tolerance:.0e})")
    return 0 if worst <= args.tolerance else 1


def cmd_oracle(args):
    if args.sweep is not None:
        bias, gap = scm_mod.gap_sweep(args.sweep)
        print(f"{args.sweep} random SCMs, cardinalities 2..{scm_mod.SWEEP_MAX_CARD}")
        for name, values in (("observational vs do(x) TV", bias), ("rounded-stratum gap TV", gap)):
            q = np.percentile(values, [50, 90, 99])
            print(f"{name:>28}: median {q[0]:.4f}  p90 {q[1]:.4f}  p99 {q[2]:.4f}  "
                  f"max {max(values):.4f}  (n={len(values)})")
        return 0
    model = load_scm_config(args.config) if args.config else scm_mod.worked_example()
    print(f"discrete SCM: |C|={model.n_c} |X|={model.n_x} |Y|={model.n_y}")
    header = f"{'x':>3} {'P(Y|x)':>24} {'P(Y|do(x))':>24} {'surgery':>24} {'approx gap':>10}"
    print(header)
    for x in range(model.n_x):
        obs = np.array2string(scm_mod.observational(model, x), precision=4)
        adj = np.array2string(scm_mod.backdoor_adjust(model, x), precision=4)
        enum = np.array2string(scm_mod.intervene_enumerate(model, x), precision=4)
        gap = scm_mod.approximation_gap(model, x)
        print(f"{x:>3} {obs:>24} {adj:>24} {enum:>24} {gap:>10.4f}")
    return 0


def cmd_inspect(args):
    cfg, model = _load_model(args.checkpoint)
    records = load_dataset(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    # every map is one batched (N,1,H,W) call; sobel and uncertainty scale to each image's peak
    preds = predict(model, [rec.image for rec in records], cfg.batch)[:, None]
    masks = np.stack([rec.mask for rec in records])[:, None]
    bands = boundary_band(masks, cfg.band_width)
    edges = sobel_magnitude(masks)
    v = uncertainty_map(Tensor(preds.astype(np.float64)), bands).data
    maps = {"entropy": entropy_map(preds), "band": bands,
            "sobel": edges / np.maximum(edges.max(axis=(1, 2, 3), keepdims=True), 1.0),
            "uncertainty": v / np.maximum(v.max(axis=(1, 2, 3), keepdims=True), 1e-12)}
    for i, rec in enumerate(records):
        for name, stack in maps.items():
            write_pgm(outdir / f"{rec.stem or i}.{name}.pgm", stack[i, 0])
    mixers = model.pipeline.mixers if model.pipeline is not None else []
    for stage, mixer in enumerate(mixers):
        write_rows(outdir / f"omega_stage{stage}.csv",
                   [{"channel": c, **{f"k{j}": f"{w:.8f}" for j, w in enumerate(row)}}
                    for c, row in enumerate(mixer.omega().data)])
    diagnostics = diagnose(model, *split_dataset(records, cfg.split_fraction, cfg.seed))
    text = json.dumps(diagnostics, indent=2) + "\n"
    write_atomic(outdir / "diagnostics.json", lambda fh: fh.write(text.encode()))
    print(f"wrote {4 * len(records)} maps, {len(mixers)} omega CSVs and diagnostics.json to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalseg",
        description="Causal-intervention segmentation harness on synthetic confounded data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic confounded dataset as PGM pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=_int_at_least(0, "a count of at least 0"), default=256)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest-check", help="validate an image/mask directory")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("train", help="train a model")
    _add_config_flags(p, require_seed=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on its run's test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="per-image metrics CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate-k", help="train/evaluate across K values")
    _add_config_flags(p)
    p.add_argument("--k-list", type=_int_list, required=True, help="comma-separated K values")
    p.add_argument("--out", help="CSV path")
    p.set_defaults(func=cmd_ablate_k)

    p = sub.add_parser("ablate-modules", help="backbone/GSm/CIBM ablation grid")
    _add_config_flags(p)
    p.add_argument("--seeds", type=_int_list, help="comma-separated seeds (default: --seed)")
    p.add_argument("--out", help="CSV path")
    p.set_defaults(func=cmd_ablate_modules)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all losses")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--max-probes", type=_int_at_least(1, "a positive integer"), default=40)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle", help="discrete backdoor-adjustment oracle table")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--config", help="SCM definition file (default: built-in example)")
    group.add_argument("--sweep", type=int, metavar="N",
                       help="instead, percentiles of both TV gaps over N random SCMs")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("inspect", help="dump per-record maps, omega CSVs and latent diagnostics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CheckpointError, ConfigError, DatasetError, OSError, PgmError, SCMError,
            TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
