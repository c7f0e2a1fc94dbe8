"""The package's import footprint."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import causalseg

_IMPORT_ALL = """
import importlib, json, pkgutil, sys
import causalseg
names = [f"causalseg.{m.name}" for m in pkgutil.iter_modules(causalseg.__path__)]
for name in names:
    importlib.import_module(name)
print(json.dumps([names, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_no_module_imports_scipy():
    # importing a scipy submodule costs a process about 20 MiB of RSS, and
    # the package needs numpy only; a fresh process, so that pytest's own
    # imports and the tests' scipy references do not count
    src = Path(causalseg.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    names, scipy_modules = json.loads(out.splitlines()[-1])
    assert set(names) == {f"causalseg.{m.name}" for m in pkgutil.iter_modules(causalseg.__path__)}
    assert "causalseg.cli" in names and "causalseg.train" in names
    assert scipy_modules == []
