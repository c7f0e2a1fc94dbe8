"""Benchmark command for causalseg.

    python3 bench/run.py --workload train_full32 --seed 0 --seconds 20 --trace 0

Run from the repository root.  It imports the package from ``src/``,
runs one workload (see README.md in this directory), checks that the
outputs are correct, and prints the metrics as the last line of standard
output: every end-to-end metric with ``--trace 0``, every per-layer metric
with ``--trace 1``.  A fuller report (environment, sample counts, errors)
goes to ``.bench_out/`` under the repository root, together with the
spans of a traced run.  Exits 1 when a correctness check fails and 2 when
the package is not there.

``--replay`` runs one set-up and one fit and prints their checkpoint digest
and per-image metrics as JSON; a run starts it in a fresh process to check
that the same seed gives the same bytes across processes.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every shape so that a run takes seconds (smoke test)")
    parser.add_argument("--replay", action="store_true",
                        help="one fit; print its checkpoint digest and per-image metrics")
    return parser.parse_args(argv)


def blas_threads():
    """OpenBLAS thread count read from the library numpy loaded, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def replay(args) -> dict:
    """The ``--replay`` result of a fresh process with the same arguments."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--replay"] + ["--tiny"] * args.tiny
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return {"errors": ["no result within 120 s"]}
    if out.returncode != 0:
        return {"errors": [f"exit {out.returncode}: {out.stderr.strip()[-500:]}"]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "causalseg" / "__init__.py").is_file():
        print(f"error: the causalseg package is not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.tiny:
        wl.shrink()
    OUT.mkdir(exist_ok=True)
    if args.replay:
        print(json.dumps(wl.Runner(wl.WORKLOADS[args.workload], args.seed, OUT).replay()))
        return 0
    env = environment()
    env["seed"] = args.seed
    env["loadavg_before"] = os.getloadavg()

    tr = tracing.Tracer() if args.trace else None
    runner = wl.Runner(wl.WORKLOADS[args.workload], args.seed, OUT, tr)
    checks = wl.Measure()
    if args.trace:
        ref = runner.load(args.seconds / 2)
        traced = runner.load(args.seconds / 2, label="load")
        measures = [ref, traced, checks]
        wl.compare(ref, traced, checks)
    else:
        ref = runner.load(args.seconds)
        measures = [ref, checks]
    if not ref.errors:
        wl.check_replay(ref, replay(args), checks)
    env["loadavg_after"] = os.getloadavg()

    attempted = sum(m.attempted for m in measures)
    failed = sum(m.failed for m in measures)
    errors = [e for m in measures for e in m.errors]
    # --tiny reports get their own names so they never replace a real run's
    stem = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
    metrics = {}  # a run that failed its checks reports no metrics
    if not errors and args.trace:
        ratio = statistics.median(traced.epoch_s) / statistics.median(ref.epoch_s)
        metrics = tracing.layer_metrics(tr, traced.steps, len(traced.setup_s), ratio)
        tr.write(OUT / f"{stem}.trace.npz")
    elif not errors:
        metrics = wl.end_to_end(ref)
    report = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "failed_ops_ratio": failed / max(attempted, 1), "errors": errors,
        # compared between runs with the same seed at the same commit
        "final_checkpoint_sha256": ref.digests[0] if ref.digests else None, "per_image_dice_iou_fdr_auc": ref.per_image,
        "samples": {"setups": sum(len(m.setup_s) for m in measures),
                    "step_intervals": sum(len(m.step_s) for m in measures),
                    "epochs": sum(len(m.epoch_s) for m in measures),
                    "eval_calls": sum(len(m.eval_call_s) for m in measures)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print("env " + json.dumps(env))
    print("samples " + json.dumps(report["samples"]))
    for e in errors:
        print(f"FAILED: {e}")
    print(f"failed_ops_ratio {report['failed_ops_ratio']:.6g} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
