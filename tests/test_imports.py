"""The package needs NumPy only at run time; SciPy is a test dependency.
The commands keep to the NumPy modules that ``import numpy`` loads: no
``numpy.ma``, which ``np.unique`` imports."""

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


TINY_CONFIG = """
[experiment]
seeds = 1

[data]
samples_per_group = 60, 50, 40, 30

[federation]
num_clients = 2
rounds = 2
local_iterations = 2

[attack]
mia_overfit_steps = 20
aia_trials = 5
"""

COMMAND_PROBE = """
import json, sys
import numpy
bare = "numpy.ma" in sys.modules
from resfl_sim.cli import main
codes = [main([cmd, "--config", sys.argv[1], "--out", sys.argv[2] + "/" + cmd])
         for cmd in ("run", "attack")]
print(json.dumps({"codes": codes, "bare": bare, "after": "numpy.ma" in sys.modules}))
"""


def test_run_and_attack_load_numpy_ma_only_if_numpy_does(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", COMMAND_PROBE, str(cfg), str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0]
    assert report["after"] == report["bare"]
