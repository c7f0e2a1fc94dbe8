"""Smoke test: every workload at a tiny size emits every named metric.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    else:
        bypassed = workload == "train_backbone32"
        for layer in ("gsm.", "cibm.", "boundary."):
            layer_values = [v for k, v in values.items() if k.startswith(layer)]
            assert all(v == 0 for v in layer_values) if bypassed else all(layer_values), layer
        assert values["tensor.conv2d.bwd_ms"] > 0 and values["trace.overhead_ratio"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_full32", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
