"""The benchmark's tracer (bench/tracer.py) still finds every binding it wraps.

The tracer wraps package functions by name, so a rename in the package
breaks the benchmark; this test catches that in the regular suite.
"""

import importlib
from pathlib import Path

import causalseg.tensor as T
import causalseg.train as train

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
