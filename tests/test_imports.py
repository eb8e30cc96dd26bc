"""The package needs NumPy only at run time; SciPy is a test dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

import resfl_sim

SRC = Path(resfl_sim.__file__).resolve().parent.parent

PROBE = """
import importlib, json, pkgutil, sys
import resfl_sim
names = sorted(m.name for m in pkgutil.iter_modules(resfl_sim.__path__, "resfl_sim."))
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names,
                  "scipy": sorted(k for k in sys.modules
                                  if k == "scipy" or k.startswith("scipy."))}))
"""


def test_importing_every_module_loads_no_scipy():
    # a fresh interpreter, so modules the test process has imported do not count
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    report = json.loads(proc.stdout)
    assert "resfl_sim.cli" in report["modules"]
    assert "resfl_sim.evidential" in report["modules"]
    assert report["scipy"] == []
