"""Behaviour fingerprint: sha256 of the CLI's byte-stable outputs.

A refactor that keeps behaviour keeps these hashes. The hashes depend on
NumPy's random streams and float kernels, so they are pinned to the
NumPy version they were recorded with and skipped on any other.
"""

import hashlib

import numpy as np
import pytest

from resfl_sim.cli import main

RECORDED_WITH_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_WITH_NUMPY,
    reason=f"fingerprint hashes were recorded with NumPy {RECORDED_WITH_NUMPY}, "
           f"this is NumPy {np.__version__}")

CONFIG = """\
[experiment]
seeds = 1, 2
algorithms = fedavg, fedavg_dp, resfl

[data]
input_dim = 6
samples_per_group = 40, 30, 20, 10
group_means = 0,0; -0.1,-0.1; -0.25,-0.25; -0.4,-0.4
label_flip_noise = 0.1, 0, 0.2, 0.05
attr_leak = 0.5
partition_beta = 0.5

[federation]
rounds = 3
local_iterations = 3
batch_size = 16
eta = 0.02
eta_phi = 0.05
lambda_adv = 0.5
dp_epsilon = 0.5
dp_clip = 1.0
hidden_dims = 8

[attack]
kinds = mia, aia, byzantine, poisoning
mia_overfit_size = 10
mia_overfit_steps = 30
aia_trials = 10
poison_rate = 0.2
byzantine_fraction = 0.25
byzantine_scale = 2.0
"""

# three hidden layers, so the backward loop runs over inner layers too
DEEP_CONFIG = CONFIG.replace("hidden_dims = 8", "hidden_dims = 16, 8, 8")
# many clients of one local step each, so the round loop reuses the
# local-training workspace across clients far more often than it steps
WIDE_CONFIG = CONFIG.replace("local_iterations = 3",
                             "num_clients = 8\nlocal_iterations = 1")
VARIANTS = {"": CONFIG, "deep": DEEP_CONFIG, "wide": WIDE_CONFIG}

EXPECTED = {
    "run": {
        "metrics.csv": "f55e209c9cd2ad582a0bec44384e584a3f49d5b8c8339864e9e50d1a749d1625",
        "summary": "4a9df55ed43e263ef2c756d34688c00bb025f0f5848582d6460e47630d9c18bd",
    },
    "attack": {
        "attacks.csv": "ed79b0780e26d8e24c77cc372a97727cb917131486aac9673be75cb28173d6bf",
    },
    "sweep": {
        "sweep.csv": "25421cea82711a8bff63bf493d9df064d9afcd908ef109684fb9eaa56ab540b9",
    },
    "run_wide": {
        "metrics.csv": "2cc3f994cb7171932d3cd061277ec40b06fa6fd05b22d1f3cb3b2e3dffdbad65",
        "summary": "de024bb7e265532dc6db8d400712e58eaf407360bfb67ab935362ac9eb87d49f",
    },
    "run_deep": {
        "metrics.csv": "56bc589be148485a703ed8c31a2f7cc74cd23d9163aafa6728ff6cd56c349bad",
        "summary": "c18d415389c85fcc24c7628e871a8aa5350ddd0c7aeea71d0843e74a1f2471ea",
    },
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_outputs_match_recorded_hashes(case, tmp_path):
    command, _, variant = case.partition("_")
    cfg = tmp_path / "fp.cfg"
    cfg.write_text(VARIANTS[variant])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in EXPECTED[case]}
    assert got == EXPECTED[case]
