"""Outside-in span tracer for the causalseg benchmark.

The package carries no instrumentation.  ``Tracer.install`` replaces each
traced public function at the attribute its callers look it up through,
records one span per call (name, start, end, parent span, run id) in flat
arrays, and ``uninstall`` puts the originals back.  Names a module imports
with ``from .x import y`` are wrapped in the importing module (for example
``causalseg.train.usd_batch``), because that is the binding the caller
reads; ``T.<op>`` calls and the CIBM hook's ``fuse``/``mix`` resolve
through their own module at call time.  The backward time of a tensor op
is measured by wrapping the ``_backward`` closure of the tensor it returns.
"""

import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

import causalseg.backbone as backbone
import causalseg.boundary as boundary
import causalseg.cibm as cibm
import causalseg.data as data
import causalseg.model as model
import causalseg.tensor as T
import causalseg.train as train

# Tensor ops with their own per-layer metrics; every other public function
# of the tensor module that returns a Tensor is summed into "other".
NAMED_OPS = ("conv2d", "gelu", "add", "mul", "avgpool2", "upsample_nearest2",
             "concat", "global_avg_pool", "softmax", "sigmoid")

# (span name, owner, attribute): the binding each caller looks up.
LAYER_TARGETS = (
    ("tensor.backward", T, "backward"),
    ("backbone.encode", backbone.EncoderDecoder, "encode"),
    ("backbone.decode", backbone.EncoderDecoder, "decode"),
    ("gsm.extract_prior", model, "extract_prior"),
    ("gsm.extract_posterior", model, "extract_posterior"),
    ("gsm.sample", model, "sample"),
    ("gsm.kl_loss", train, "kl_loss"),
    ("cibm.fuse", cibm, "fuse"),
    ("cibm.mix", cibm, "mix"),
    ("boundary.usd_batch", train, "usd_batch"),
    ("boundary.boundary_band", boundary, "boundary_band"),
    ("losses.bce_loss", train, "bce_loss"),
    ("losses.dice_loss", train, "dice_loss"),
    ("losses.metrics", train, "metrics"),
    ("model.forward", model.SegModel, "forward"),
    ("train.SGD.step", train.SGD, "step"),
    ("train.compute_losses", train, "compute_losses"),
    ("train.evaluate_model", train, "evaluate_model"),
    ("train.fit", train, "fit"),
    ("checkpoint.save_checkpoint", train, "save_checkpoint"),
    ("data.generate_synthetic", data, "generate_synthetic"),
)


def _counted(fn, counts, key, amount):
    def call(g):
        counts[key] += amount
        return fn(g)

    return call


def tensor_ops() -> list[str]:
    """Public functions of the tensor module that build a graph node."""
    ops = []
    for name, fn in vars(T).items():
        if name.startswith("_") or not callable(fn) or isinstance(fn, type):
            continue
        if getattr(fn, "__module__", None) != T.__name__:
            continue
        if getattr(fn, "__annotations__", {}).get("return") in ("Tensor", T.Tensor):
            ops.append(name)
    missing = sorted(set(NAMED_OPS) - set(ops))
    if missing:
        raise RuntimeError(f"tensor ops not found: {', '.join(missing)}")
    return sorted(ops)


class Tracer:
    """Records spans while installed; everything stays in memory until
    ``write`` is called at the end of the run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.runs: list[str] = []
        self.counts_by_label: dict[str, defaultdict] = {}
        self.counts = None
        self._stack: list[int] = []
        self._run_id = -1
        self._saved: list = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _timed(self, fn, nid):
        stack, names, starts, ends = self._stack, self.name, self.start, self.end
        parents, runs, now = self.parent, self.run, time.perf_counter

        def call(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self._run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()

        return call

    def _op(self, name, fn):
        fwd = self._timed(fn, self._id(f"tensor.{name}"))
        bwd_id = self._id(f"tensor.{name}.bwd")
        counts, timed = self.counts, self._timed
        is_conv = name == "conv2d"

        @functools.wraps(fn)
        def op(*args, **kwargs):
            out = fwd(*args, **kwargs)
            bw = out._backward
            if bw is not None:
                out._backward = timed(bw, bwd_id)
            if is_conv:
                x, kernel = args[0], args[1]
                n, c, h, w = x.shape
                o, _, k, _ = kernel.shape
                flop = 2.0 * n * h * w * o * c * k * k
                counts["conv2d.fwd_flop"] += flop
                if bw is not None:
                    # grad-w and grad-x each cost one forward's worth
                    out._backward = _counted(out._backward, counts, "conv2d.bwd_flop",
                                             flop * (x.requires_grad + kernel.requires_grad))
            return out

        return op

    def _layer(self, name, fn):
        timed = self._timed(fn, self._id(name))
        counts = self.counts
        if name == "tensor.backward":
            nodes = self._timed(T.ancestors, self._id("trace.ancestors"))

            def backward(loss):
                counts["graph_nodes"] += len(nodes(loss))
                return timed(loss)

            return functools.wraps(fn)(backward)
        if name == "model.forward":
            def forward(self_, images, *args, **kwargs):
                counts["forward_images"] += images.shape[0]
                return timed(self_, images, *args, **kwargs)

            return functools.wraps(fn)(forward)
        if name == "checkpoint.save_checkpoint":
            def save(path, *args, **kwargs):
                out = timed(path, *args, **kwargs)
                counts["checkpoint_bytes"] += os.path.getsize(path)
                return out

            return functools.wraps(fn)(save)
        return functools.wraps(fn)(timed)

    # -- installation ----------------------------------------------------
    def install(self, label: str):
        """Start run ``label``: wrap every target until ``uninstall``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._run_id = len(self.runs)
        self.runs.append(label)
        self.counts = self.counts_by_label.setdefault(label, defaultdict(float))
        patches = [(T, op, self._op(op, getattr(T, op))) for op in tensor_ops()]
        for name, owner, attr in LAYER_TARGETS:
            original = vars(owner).get(attr)
            if original is None:
                raise RuntimeError(f"trace target {owner.__name__}.{attr} is gone")
            patches.append((owner, attr, self._layer(name, original)))
        for owner, attr, wrapper in patches:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis --------------------------------------------------------
    def table(self, runs) -> dict:
        """Per span name over the given run labels: calls, total seconds
        and self seconds.

        Self time is a span minus its child spans, where a tensor op's
        forward or backward span counts toward the layer that called it
        unless that caller is itself in the tensor layer.  So
        ``backbone.decode`` keeps its convolutions and loses only its CIBM
        hook, while ``tensor.backward`` loses the per-op backward spans.
        """
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        run = np.frombuffer(self.run, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        labels = np.array(self.names)
        is_op = np.array([s.startswith("tensor.") and s != "tensor.backward" for s in self.names])
        in_tensor = np.array([s.startswith("tensor.") for s in self.names])
        child = np.nonzero(parent >= 0)[0]
        subtract = ~is_op[name[child]] | in_tensor[name[parent[child]]]
        covered = np.bincount(parent[child[subtract]], weights=dur[child[subtract]], minlength=n)
        self_time = dur - covered
        wanted = np.isin(run, [i for i, label in enumerate(self.runs) if label in runs])
        out = {}
        for nid in np.unique(name[wanted]):
            sel = wanted & (name == nid)
            out[str(labels[nid])] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                                    "self_s": float(self_time[sel].sum())}
        return out

    def write(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), runs=np.array(self.runs),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def layer_metrics(tr: Tracer, units: int, setups: int, overhead_ratio: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Spans of the runs labelled "load" are divided by ``units``, the
    training steps they made; ``data.generate_synthetic`` is per set-up.
    A layer that did not run reads 0.
    """
    load, setup = tr.table({"load"}), tr.table({"setup"})
    counts = tr.counts_by_label.get("load", {})

    def get(table, name, key):
        return table.get(name, {}).get(key, 0)

    def per_unit_ms(name, key="s"):
        return (get(load, name, key) * 1000.0 / units, "ms")

    def per_unit_calls(name):
        return (get(load, name, "calls") / units, "count")

    out = {}
    other = [op for op in tensor_ops() if op not in NAMED_OPS]
    for op in NAMED_OPS:
        out[f"tensor.{op}.fwd_ms"] = per_unit_ms(f"tensor.{op}", "self_s")
        out[f"tensor.{op}.bwd_ms"] = per_unit_ms(f"tensor.{op}.bwd")
        out[f"tensor.{op}.calls"] = per_unit_calls(f"tensor.{op}")
    out["tensor.other.fwd_ms"] = (sum(get(load, f"tensor.{op}", "self_s") for op in other)
                                  * 1000.0 / units, "ms")
    out["tensor.other.bwd_ms"] = (sum(get(load, f"tensor.{op}.bwd", "s") for op in other)
                                  * 1000.0 / units, "ms")
    fwd_s, bwd_s = get(load, "tensor.conv2d", "s"), get(load, "tensor.conv2d.bwd", "s")
    fwd_flop, bwd_flop = counts.get("conv2d.fwd_flop", 0.0), counts.get("conv2d.bwd_flop", 0.0)
    out["tensor.conv2d.gflop"] = (fwd_flop / 1e9 / units, "GFLOP_computed")
    out["tensor.conv2d.fwd_gflops_per_s"] = (fwd_flop / 1e9 / fwd_s if fwd_s else 0.0, "GFLOP/s")
    out["tensor.conv2d.bwd_gflops_per_s"] = (bwd_flop / 1e9 / bwd_s if bwd_s else 0.0, "GFLOP/s")
    out["tensor.backward.ms"] = per_unit_ms("tensor.backward")
    out["tensor.backward.self_ms"] = per_unit_ms("tensor.backward", "self_s")
    out["tensor.graph_nodes"] = (counts.get("graph_nodes", 0.0) / units, "count")
    out["backbone.encode.ms"] = per_unit_ms("backbone.encode")
    out["backbone.decode.self_ms"] = per_unit_ms("backbone.decode", "self_s")
    for name in ("gsm.extract_prior", "gsm.extract_posterior", "gsm.sample", "gsm.kl_loss",
                 "cibm.fuse", "cibm.mix", "boundary.usd_batch", "boundary.boundary_band",
                 "losses.bce_loss", "losses.dice_loss", "losses.metrics", "model.forward",
                 "train.SGD.step", "train.compute_losses", "train.evaluate_model",
                 "checkpoint.save_checkpoint"):
        out[f"{name}.ms"] = per_unit_ms(name)
    for name in ("cibm.fuse", "boundary.boundary_band", "losses.metrics", "model.forward"):
        out[f"{name}.calls"] = per_unit_calls(name)
    forwards = get(load, "model.forward", "calls")
    out["model.forward.images_per_call"] = (
        counts.get("forward_images", 0.0) / forwards if forwards else 0.0, "count")
    out["train.fit.self_ms"] = per_unit_ms("train.fit", "self_s")
    saves = get(load, "checkpoint.save_checkpoint", "calls")
    out["checkpoint.save_checkpoint.bytes"] = (
        counts.get("checkpoint_bytes", 0.0) / saves if saves else 0.0, "B")
    out["data.generate_synthetic.ms"] = (
        get(setup, "data.generate_synthetic", "s") * 1000.0 / setups, "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
