"""Experiment configuration: flat ``key = value`` text with sections.

The format is deliberately diff-friendly: ``[section]`` headers, one
``key = value`` per line, ``#`` comments. Unknown sections or keys are
rejected with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import NetworkSpec

AGGREGATORS = ("fedavg", "fedavg_dp", "resfl")
ATTACK_KINDS = ("mia", "aia", "byzantine", "poisoning")
DP_DELTA = 1e-5  # the delta of fedavg_dp's (epsilon, delta) guarantee


class ConfigError(Exception):
    pass


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()} is not a finite number")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


def _parse_matrix(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_parse_floats(row) for row in text.split(";"))


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(","))


_SCHEMA: dict[str, dict[str, object]] = {
    "experiment": {
        "seeds": _parse_ints,
        "algorithms": _parse_names,
        "out_dir": str,
    },
    "data": {
        "input_dim": int,
        "num_classes": int,
        "num_groups": int,
        "samples_per_group": _parse_ints,
        "group_means": _parse_matrix,
        "noise_std": _parse_float,
        "attr_leak": _parse_float,
        "label_flip_noise": _parse_floats,
        "partition_beta": _parse_float,
        "test_fraction": _parse_float,
    },
    "federation": {
        "num_clients": int,
        "rounds": int,
        "local_iterations": int,
        "batch_size": int,
        "eta": _parse_float,
        "eta_phi": _parse_float,
        "lambda1": _parse_float,
        "lambda_adv": _parse_float,
        "dp_epsilon": _parse_float,
        "dp_clip": _parse_float,
        "server_lr": _parse_float,
        "hidden_dims": _parse_ints,
    },
    "attack": {
        "kinds": _parse_names,
        "mia_overfit_size": int,
        "mia_overfit_steps": int,
        "aia_trials": int,
        "byzantine_fraction": _parse_float,
        "byzantine_scale": _parse_float,
        "poison_group": int,
        "poison_rate": _parse_float,
    },
    "sweep": {
        "rows": _parse_matrix,
    },
}

_SECTION = {key: section for section, keys in _SCHEMA.items() for key in keys}

# the two keys named unlike their ExperimentConfig field
_FIELD = {"kinds": "attack_kinds", "rows": "sweep_rows"}

_REQUIRED = {("experiment", "seeds")}


def _distinct(values: tuple) -> bool:
    return len(set(values)) == len(values)


# Default coefficient pairs for the ablation sweep.
DEFAULT_SWEEP_ROWS = (
    (0.0, 1.0), (0.01, 1.0), (0.1, 0.01), (0.1, 0.1),
    (0.1, 1.0), (1.0, 0.0), (1.0, 1.0),
)


@dataclass
class ExperimentConfig:
    """The run settings, one field per config key: the one settings
    object that every training cell, data draw and attack reads. Its
    field defaults are the only defaults of the keys, and the table in
    ``__post_init__`` is the only check of their ranges, made at
    construction (also by ``dataclasses.replace``); the functions that
    read the fields trust them."""
    seeds: tuple[int, ...]  # the first also seeds the data
    algorithms: tuple[str, ...] = ("fedavg", "resfl")
    out_dir: str = "out"

    input_dim: int = 20
    num_classes: int = 2
    num_groups: int = 4
    samples_per_group: tuple[int, ...] = (2000, 1500, 1000, 500)
    # G x C class-amplitude offsets; None: zeros
    group_means: tuple[tuple[float, ...], ...] | None = None
    noise_std: float = 1.0
    attr_leak: float = 0.5  # fraction of coords carrying group signal
    label_flip_noise: tuple[float, ...] | None = None  # per group; None: zeros
    partition_beta: float = 0.5
    test_fraction: float = 0.2
    hidden_dims: tuple[int, ...] = (32, 32)

    rounds: int = 100
    local_iterations: int = 5
    batch_size: int = 64
    num_clients: int = 4
    eta: float = 0.001
    eta_phi: float | None = None  # None: eta, resolved where it is read
    lambda1: float = 0.1
    lambda_adv: float = 0.01
    dp_epsilon: float = 0.1
    dp_clip: float = 1.0
    server_lr: float | None = None  # None: 1 / num_clients, resolved where it is read

    attack_kinds: tuple[str, ...] = ATTACK_KINDS
    mia_overfit_size: int = 30
    mia_overfit_steps: int = 3000
    aia_trials: int = 100
    byzantine_fraction: float = 0.25
    byzantine_scale: float = 10.0
    poison_group: int | None = None  # None: the smallest non-empty group
    poison_rate: float = 0.2

    sweep_rows: tuple[tuple[float, ...], ...] = DEFAULT_SWEEP_ROWS

    def __post_init__(self):
        G, C = self.num_groups, self.num_classes
        spg, gm, lf = self.samples_per_group, self.group_means, self.label_flip_noise
        filled = [g for g, n in enumerate(spg) if n > 0]
        # every key's range, in the positive form, so a nan fails it. All
        # rows are evaluated before the first is read, so each must be safe
        # to evaluate when an earlier one fails. The DP values are checked
        # whatever the algorithms, since attack's MIA target is a fedavg_dp run
        checks = (  # (key, value, allowed range, in range)
            ("seeds", self.seeds, "non-empty, no repeats",
             len(self.seeds) > 0 and _distinct(self.seeds)),
            ("algorithms", self.algorithms, f"among {', '.join(AGGREGATORS)}, no repeats",
             set(self.algorithms) <= set(AGGREGATORS) and _distinct(self.algorithms)),
            ("input_dim", self.input_dim, ">= 1", self.input_dim >= 1),
            ("num_classes", C, ">= 2", C >= 2),
            ("num_groups", G, ">= 2", G >= 2),
            ("samples_per_group", spg, f"{G} counts, each >= 0, two or more > 0",
             len(spg) == G and all(n >= 0 for n in spg) and len(filled) >= 2),
            ("group_means", gm, f"{G} rows of {C} values",
             gm is None or (len(gm) == G and all(len(row) == C for row in gm))),
            ("noise_std", self.noise_std, ">= 0", self.noise_std >= 0),
            ("attr_leak", self.attr_leak, "in [0, 1]", 0.0 <= self.attr_leak <= 1.0),
            ("label_flip_noise", lf, f"{G} values, each in [0, 0.5)",
             lf is None or (len(lf) == G and all(0.0 <= v < 0.5 for v in lf))),
            ("partition_beta", self.partition_beta, "> 0", self.partition_beta > 0),
            ("test_fraction", self.test_fraction, "in (0, 1)",
             0.0 < self.test_fraction < 1.0),
            ("hidden_dims", self.hidden_dims, "non-empty, each >= 1",
             len(self.hidden_dims) > 0 and min(self.hidden_dims) >= 1),
            ("num_clients", self.num_clients, ">= 1", self.num_clients >= 1),
            # >= 1: summary and the paired attacks read each cell's last round
            ("rounds", self.rounds, ">= 1", self.rounds >= 1),
            ("local_iterations", self.local_iterations, ">= 0",
             self.local_iterations >= 0),
            ("batch_size", self.batch_size, ">= 1", self.batch_size >= 1),
            ("eta", self.eta, "> 0", self.eta > 0),
            ("eta_phi", self.eta_phi, "> 0", self.eta_phi is None or self.eta_phi > 0),
            ("lambda1", self.lambda1, ">= 0", self.lambda1 >= 0),
            ("lambda_adv", self.lambda_adv, ">= 0", self.lambda_adv >= 0),
            # the Gaussian mechanism's sigma holds for epsilon < 1 only
            ("dp_epsilon", self.dp_epsilon, "in (0, 1)", 0.0 < self.dp_epsilon < 1.0),
            ("dp_clip", self.dp_clip, "> 0", self.dp_clip > 0),
            ("server_lr", self.server_lr, "> 0",
             self.server_lr is None or self.server_lr > 0),
            ("kinds", self.attack_kinds, f"among {', '.join(ATTACK_KINDS)}, no repeats",
             set(self.attack_kinds) <= set(ATTACK_KINDS) and _distinct(self.attack_kinds)),
            # the shadow pool is the training split past the members, >= 4 samples
            ("mia_overfit_size", self.mia_overfit_size, f">= 1 and <= {sum(spg) - 4}",
             1 <= self.mia_overfit_size <= sum(spg) - 4),
            ("mia_overfit_steps", self.mia_overfit_steps, ">= 0",
             self.mia_overfit_steps >= 0),
            ("aia_trials", self.aia_trials, ">= 1", self.aia_trials >= 1),
            ("byzantine_fraction", self.byzantine_fraction, "in [0, 1)",
             0.0 <= self.byzantine_fraction < 1.0),
            ("byzantine_scale", self.byzantine_scale, ">= 0", self.byzantine_scale >= 0),
            ("poison_group", self.poison_group, f"a group with samples, one of {filled}",
             self.poison_group is None or self.poison_group in filled),
            ("poison_rate", self.poison_rate, "in [0, 1]", 0.0 <= self.poison_rate <= 1.0),
            ("rows", self.sweep_rows, "'lambda1,lambda_adv' pairs of values >= 0, no repeats",
             all(len(r) == 2 and min(r) >= 0 for r in self.sweep_rows)
             and _distinct(self.sweep_rows)),
        )
        for key, value, allowed, ok in checks:
            section = _SECTION[key]  # for every row, so a misspelt key always fails
            if not ok:
                raise ConfigError(f"[{section}] {key} must be {allowed}, got {value}")
        # the settings derived from others, each resolved after its check
        if gm is None:
            self.group_means = ((0.0,) * C,) * G
        if lf is None:
            self.label_flip_noise = (0.0,) * G
        if self.poison_group is None:
            self.poison_group = min(filled, key=spg.__getitem__)  # lowest id on a tie

    def network(self) -> NetworkSpec:
        return NetworkSpec(input_dim=self.input_dim,
                           hidden_dims=self.hidden_dims,
                           num_classes=self.num_classes,
                           num_groups=self.num_groups)

    @property
    def dp_noise_scale(self) -> float:
        """Gaussian-mechanism noise multiplier for (epsilon, delta)."""
        return math.sqrt(2.0 * math.log(1.25 / DP_DELTA)) / self.dp_epsilon


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """Sectioned key = value pairs with schema validation."""
    parsed: dict[str, dict[str, object]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            parsed.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{section}]")
        if key in parsed[section]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            parsed[section][key] = _SCHEMA[section][key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc
    for sec, key in _REQUIRED:
        if key not in parsed.get(sec, {}):
            raise ConfigError(f"missing required key '{key}' in [{sec}]")
    return parsed


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # only the keys in the file; ExperimentConfig's fields hold the defaults
    return ExperimentConfig(**{_FIELD.get(key, key): value
                               for entries in parse_config_text(text).values()
                               for key, value in entries.items()})


def normalized_text(cfg: ExperimentConfig) -> str:
    """The effective config: every key's value, defaults included, keys
    sorted within each section. It loads back equal to ``cfg``: a None
    (a rate that follows another) is left out, and ``str`` is exact."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in sorted(keys):
            val = getattr(cfg, _FIELD.get(key, key))
            if val is None:
                continue
            if isinstance(val, tuple) and val and isinstance(val[0], tuple):
                text = "; ".join(",".join(str(x) for x in row) for row in val)
            elif isinstance(val, tuple):
                text = ", ".join(str(v) for v in val)
            else:
                text = str(val)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)
