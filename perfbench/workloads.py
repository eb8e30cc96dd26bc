"""The benchmark's workloads: the config each one runs, the work it stands
for, and the checks its outputs must pass.

Every workload keeps the data and model of ``configs/default.cfg`` (4
groups, 5,000 training and 1,250 test samples, a 20-32-32 network) and
differs only in the knobs listed on its ``Workload``. The config text is
kept here rather than read from ``configs/`` so that a change to the
repository's default config does not silently change the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

ALGORITHMS = ("fedavg", "resfl")
ATTACK_KINDS = ("mia", "aia", "byzantine", "poisoning")
NUM_GROUPS = 4

CONFIG_TEMPLATE = """\
[experiment]
seeds = {seed}
algorithms = {algorithms}

[data]
input_dim = 20
num_classes = 2
num_groups = {num_groups}
samples_per_group = 2000, 1500, 1000, 500
group_means = 0,0; -0.1,-0.1; -0.25,-0.25; -0.4,-0.4
noise_std = 1.0
attr_leak = 0.5
partition_beta = 0.5
test_fraction = 0.2

[federation]
num_clients = {num_clients}
rounds = {rounds}
local_iterations = {local_iterations}
batch_size = 64
eta = {eta}
eta_phi = 0.05
lambda1 = 0.1
lambda_adv = 0.5
dp_epsilon = 0.1
dp_clip = 1.0
hidden_dims = 32, 32

[attack]
kinds = {kinds}
mia_overfit_size = 30
mia_overfit_steps = {mia_steps}
aia_trials = {aia_trials}
byzantine_fraction = 0.25
byzantine_scale = 10.0
poison_rate = 0.2
"""

# Output files whose bytes a pass produces and a later change may move.
OUTPUT_FILES = ("metrics.csv", "summary", "attacks.csv")


@dataclass(frozen=True)
class Workload:
    """One CLI command on a generated config.

    ``accuracy_floor`` sits below the lowest final test accuracy seen on
    this shape over 35 seeds (0.56-0.57, seed 6) and above the 0.5 of a
    model that does not learn. For ``attack`` it bounds the
    attribute-inference score instead (lowest seen 0.51 over 121 seeds;
    chance is 1 / groups = 0.25), because its federation is too short for
    accuracy to separate a working model from a broken one.
    """

    name: str
    command: str
    rounds: int
    accuracy_floor: float
    num_clients: int = 4
    local_iterations: int = 50
    eta: float = 0.002
    mia_steps: int = 3000
    aia_trials: int = 100

    def config_text(self, seed: int) -> str:
        return CONFIG_TEMPLATE.format(
            seed=seed, algorithms=", ".join(ALGORITHMS), num_groups=NUM_GROUPS,
            num_clients=self.num_clients, rounds=self.rounds,
            local_iterations=self.local_iterations, eta=self.eta,
            kinds=", ".join(ATTACK_KINDS), mia_steps=self.mia_steps,
            aia_trials=self.aia_trials)

    @property
    def cell_steps(self) -> int:
        """Local SGD steps of one training cell: rounds x clients x steps."""
        return self.rounds * self.num_clients * self.local_iterations

    @property
    def nominal_steps(self) -> int:
        """Local SGD steps the outputs of one pass stand for.

        This is the work the config asks for, not the calls made, so a
        change that skips duplicated work reads as a gain.
        """
        if self.command == "run":
            return len(ALGORITHMS) * self.cell_steps
        mia = 3 * self.mia_steps  # target, DP target, one shadow model
        aia = NUM_GROUPS + self.aia_trials
        paired = 2 * len(ALGORITHMS) * self.cell_steps  # clean + attacked
        return mia + aia + 2 * paired  # byzantine and poisoning

    @property
    def cells(self) -> list[tuple[str, str]]:
        """Output rows a pass must produce, as (kind, algorithm) pairs."""
        if self.command == "run":
            return [("run", a) for a in ALGORITHMS]
        return ([("mia", "overfit"), ("mia", "fedavg_dp"), ("aia", "init")]
                + [(k, a) for k in ("byzantine", "poisoning") for a in ALGORITHMS])


WORKLOADS = {
    # The paper's headline experiment: 4 clients x 50 local steps, so the
    # local step (network, evidential, adversarial) dominates.
    "fed-default": Workload("fed-default", "run", rounds=30, accuracy_floor=0.53),
    # Many clients, one step each: per-round, per-client bookkeeping
    # (stack, group_uncertainties, shard_ufm, _evaluate) dominates.
    "fed-wide": Workload("fed-wide", "run", rounds=50, accuracy_floor=0.53,
                         num_clients=32, local_iterations=1, eta=0.05),
    # All four attacks on a short federation: batch-32 MIA training, AIA
    # one-step deltas, and the paired Byzantine and poisoning runs.
    "attack": Workload("attack", "attack", rounds=5, accuracy_floor=0.4,
                       mia_steps=1000),
}


def sha256_of(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def output_hashes(out: Path) -> dict[str, str | None]:
    return {name: sha256_of(out / name) for name in OUTPUT_FILES}


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_outputs(wl: Workload, seed: int, out: Path) -> dict[tuple[str, str], list[str]]:
    """Problems found in one pass's outputs, per cell (empty list = pass)."""
    if wl.command == "run":
        return _check_run(wl, seed, out)
    return _check_attack(wl, seed, out)


def _check_run(wl: Workload, seed: int, out: Path) -> dict[tuple[str, str], list[str]]:
    problems = {cell: [] for cell in wl.cells}
    try:
        with open(out / "metrics.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        summary = json.loads((out / "summary").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {cell: [f"unreadable output: {exc}"] for cell in wl.cells}
    for cell in wl.cells:
        algo = cell[1]
        mine = [r for r in rows if r["algo"] == algo]
        if len(mine) != wl.rounds:
            problems[cell].append(f"{len(mine)} metrics rows, expected {wl.rounds}")
            continue
        try:
            values = [float(v) for r in mine for k, v in r.items()
                      if k not in ("algo", "seed", "round")]
        except ValueError as exc:
            problems[cell].append(f"bad metrics value: {exc}")
            continue
        if not _finite(values):
            problems[cell].append("non-finite metrics value")
        if any(int(r["seed"]) != seed for r in mine):
            problems[cell].append("metrics rows carry the wrong seed")
        final = float(mine[-1]["accuracy"])
        if not final >= wl.accuracy_floor:
            problems[cell].append(f"final accuracy {final} below {wl.accuracy_floor}")
        entry = summary.get(algo)
        if not isinstance(entry, dict):
            problems[cell].append("missing from summary")
        elif not _finite(v for k, v in entry.items() if k != "seeds"):
            problems[cell].append("non-finite summary value")
    return problems


def _check_attack(wl: Workload, seed: int, out: Path) -> dict[tuple[str, str], list[str]]:
    try:
        with open(out / "attacks.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        return {cell: [f"unreadable output: {exc}"] for cell in wl.cells}
    problems = {cell: [] for cell in wl.cells}
    if len(rows) != len(wl.cells):
        for cell in wl.cells:
            problems[cell].append(f"{len(rows)} attack rows, expected {len(wl.cells)}")
    for cell in wl.cells:
        mine = [r for r in rows if (r["attack"], r["algo"]) == cell]
        if len(mine) != 1:
            problems[cell].append(f"{len(mine)} rows, expected 1")
            continue
        row = mine[0]
        try:
            aux = {k: float(v) for k, v in (p.split("=") for p in row["aux"].split(";") if p)}
            score = float(row["score"])
        except ValueError as exc:
            problems[cell].append(f"bad attack value: {exc}")
            continue
        if int(row["seed"]) != seed:
            problems[cell].append("row carries the wrong seed")
        if not _finite([score, *aux.values()]):
            problems[cell].append("non-finite attack value")
        elif cell[0] in ("mia", "aia") and not 0.0 <= score <= 1.0:
            problems[cell].append(f"score {score} outside [0, 1]")
        if cell[0] == "aia" and not score >= wl.accuracy_floor:
            problems[cell].append(f"aia score {score} below {wl.accuracy_floor}")
        if cell[0] == "byzantine" and not all(
                0.0 <= aux.get(k, -1.0) <= 1.0
                for k in ("clean_accuracy", "attacked_accuracy")):
            problems[cell].append("byzantine accuracies outside [0, 1]")
    return problems
