"""Experiment configuration: flat ``key = value`` text with sections.

The format is deliberately diff-friendly: ``[section]`` headers, one
``key = value`` per line, ``#`` comments. Unknown sections or keys are
rejected with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attacks import ATTACK_KINDS
from .datasets import SynthSpec
from .federation import AGGREGATORS, FederationConfig
from .network import NetworkSpec


class ConfigError(Exception):
    pass


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


def _parse_matrix(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_parse_floats(row) for row in text.split(";"))


_SCHEMA: dict[str, dict[str, object]] = {
    "experiment": {
        "seeds": _parse_ints,
        "algorithms": lambda t: tuple(a.strip() for a in t.split(",")),
        "out_dir": str,
    },
    "data": {
        "input_dim": int,
        "num_classes": int,
        "num_groups": int,
        "samples_per_group": _parse_ints,
        "group_means": _parse_matrix,
        "noise_std": float,
        "attr_leak": float,
        "label_flip_noise": _parse_floats,
        "partition_beta": float,
        "test_fraction": float,
    },
    "federation": {
        "num_clients": int,
        "rounds": int,
        "local_iterations": int,
        "batch_size": int,
        "eta": float,
        "eta_phi": float,
        "lambda1": float,
        "lambda_adv": float,
        "dp_epsilon": float,
        "dp_clip": float,
        "server_lr": float,
        "hidden_dims": _parse_ints,
    },
    "attack": {
        "kinds": lambda t: tuple(a.strip() for a in t.split(",")),
        "mia_overfit_size": int,
        "mia_overfit_steps": int,
        "aia_trials": int,
        "byzantine_fraction": float,
        "byzantine_scale": float,
        "poison_group": int,
        "poison_rate": float,
    },
    "sweep": {
        "lambda1_grid": _parse_floats,
        "lambda_adv_grid": _parse_floats,
        "rows": lambda t: tuple(tuple(float(v) for v in row.split(","))
                                for row in t.split(";")),
    },
}

_REQUIRED = {("experiment", "seeds")}

# Default coefficient pairs for the ablation sweep.
DEFAULT_SWEEP_ROWS = (
    (0.0, 1.0), (0.01, 1.0), (0.1, 0.01), (0.1, 0.1),
    (0.1, 1.0), (1.0, 0.0), (1.0, 1.0),
)


@dataclass
class ExperimentConfig:
    """The run settings. Its field defaults are the only defaults of the
    config keys, except ``[data]``'s generator keys, whose defaults and
    checks are ``SynthSpec``'s. ``__post_init__`` checks every other value,
    once; the functions they configure take them as required arguments and
    trust them."""
    seeds: tuple[int, ...]
    # the dataset's seed: the first of ``seeds`` as loaded, kept when a
    # --seed override replaces ``seeds``
    data_seed: int | None = None
    algorithms: tuple[str, ...] = ("fedavg", "resfl")
    out_dir: str = "out"
    raw: dict[str, dict[str, object]] = field(default_factory=dict)

    synth: SynthSpec = field(default_factory=SynthSpec)
    partition_beta: float = 0.5
    test_fraction: float = 0.2
    hidden_dims: tuple[int, ...] = (32, 32)

    rounds: int = 100
    local_iterations: int = 5
    batch_size: int = 64
    num_clients: int = 4
    eta: float = 0.001
    eta_phi: float | None = None  # None: eta, set by federation_config
    lambda1: float = 0.1
    lambda_adv: float = 0.01
    dp_epsilon: float = 0.1
    dp_clip: float = 1.0
    server_lr: float | None = None  # None: 1 / num_clients, set by federation_config

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
        spg = self.synth.samples_per_group
        filled = [g for g, n in enumerate(spg) if n > 0]
        # every range but those of [data]'s generator keys, which SynthSpec
        # checks; the DP values are checked whatever the algorithms, since
        # attack's MIA target is a fedavg_dp run
        checks = (  # (section, key, value, allowed range, in range)
            ("experiment", "seeds", self.seeds, "non-empty", len(self.seeds) > 0),
            ("experiment", "algorithms", self.algorithms,
             f"among {', '.join(AGGREGATORS)}", set(self.algorithms) <= set(AGGREGATORS)),
            ("data", "partition_beta", self.partition_beta, "> 0", self.partition_beta > 0),
            ("data", "test_fraction", self.test_fraction, "in (0, 1)",
             0.0 < self.test_fraction < 1.0),
            ("federation", "hidden_dims", self.hidden_dims, "non-empty, each >= 1",
             len(self.hidden_dims) > 0 and min(self.hidden_dims) >= 1),
            ("federation", "num_clients", self.num_clients, ">= 1", self.num_clients >= 1),
            # >= 1: summary and the paired attacks read each cell's last round
            ("federation", "rounds", self.rounds, ">= 1", self.rounds >= 1),
            ("federation", "local_iterations", self.local_iterations, ">= 0",
             self.local_iterations >= 0),
            ("federation", "batch_size", self.batch_size, ">= 1", self.batch_size >= 1),
            ("federation", "eta", self.eta, "> 0", self.eta > 0),
            ("federation", "eta_phi", self.eta_phi, "> 0",
             self.eta_phi is None or self.eta_phi > 0),
            ("federation", "lambda1", self.lambda1, ">= 0", self.lambda1 >= 0),
            ("federation", "lambda_adv", self.lambda_adv, ">= 0", self.lambda_adv >= 0),
            ("federation", "dp_epsilon", self.dp_epsilon, "> 0", self.dp_epsilon > 0),
            ("federation", "dp_clip", self.dp_clip, "> 0", self.dp_clip > 0),
            ("federation", "server_lr", self.server_lr, "> 0",
             self.server_lr is None or self.server_lr > 0),
            ("attack", "kinds", self.attack_kinds, f"among {', '.join(ATTACK_KINDS)}",
             set(self.attack_kinds) <= set(ATTACK_KINDS)),
            ("attack", "mia_overfit_size", self.mia_overfit_size, ">= 1",
             self.mia_overfit_size >= 1),
            ("attack", "mia_overfit_steps", self.mia_overfit_steps, ">= 0",
             self.mia_overfit_steps >= 0),
            ("attack", "aia_trials", self.aia_trials, ">= 1", self.aia_trials >= 1),
            ("attack", "byzantine_fraction", self.byzantine_fraction, "in [0, 1)",
             0.0 <= self.byzantine_fraction < 1.0),
            ("attack", "byzantine_scale", self.byzantine_scale, ">= 0",
             self.byzantine_scale >= 0),
            ("attack", "poison_group", self.poison_group,
             f"a group with samples, one of {filled}",
             self.poison_group is None or self.poison_group in filled),
            ("attack", "poison_rate", self.poison_rate, "in [0, 1]",
             0.0 <= self.poison_rate <= 1.0),
            ("sweep", "rows", self.sweep_rows, "'lambda1,lambda_adv' pairs of values >= 0",
             all(len(r) == 2 and min(r) >= 0 for r in self.sweep_rows)),
        )
        for section, key, value, allowed, ok in checks:
            if not ok:
                raise ConfigError(f"[{section}] {key} must be {allowed}, got {value}")
        # the settings derived from others, each resolved after its check
        if self.data_seed is None:
            self.data_seed = self.seeds[0]
        if self.poison_group is None:
            self.poison_group = min(filled, key=spg.__getitem__)  # lowest id on a tie

    def network(self) -> NetworkSpec:
        return NetworkSpec(input_dim=self.synth.input_dim,
                           hidden_dims=self.hidden_dims,
                           num_classes=self.synth.num_classes,
                           num_groups=self.synth.num_groups)

    def federation_config(self, algorithm: str, seed: int) -> FederationConfig:
        return FederationConfig(
            num_clients=self.num_clients,
            rounds=self.rounds,
            local_iterations=self.local_iterations,
            batch_size=self.batch_size,
            eta=self.eta,
            eta_phi=self.eta if self.eta_phi is None else self.eta_phi,
            lambda1=self.lambda1,
            lambda_adv=self.lambda_adv,
            aggregator=algorithm,
            dp_epsilon=self.dp_epsilon,
            dp_clip=self.dp_clip,
            server_lr=1.0 / self.num_clients if self.server_lr is None else self.server_lr,
            seed=seed,
        )


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
    raw = parse_config_text(text)

    data = raw.get("data", {})
    synth_kwargs = {k: v for k, v in data.items()
                    if k not in ("partition_beta", "test_fraction")}
    try:
        synth = SynthSpec(**synth_kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid [data] section: {exc}") from exc

    exp = raw.get("experiment", {})
    fed = raw.get("federation", {})
    atk = raw.get("attack", {})
    sweep = raw.get("sweep", {})
    # only the keys in the file; ExperimentConfig's fields hold the defaults
    kwargs = {**exp, **fed,
              **{k: v for k, v in data.items() if k not in synth_kwargs},
              **{("attack_kinds" if k == "kinds" else k): v for k, v in atk.items()}}
    if "rows" in sweep:
        kwargs["sweep_rows"] = sweep["rows"]
    elif "lambda1_grid" in sweep or "lambda_adv_grid" in sweep:
        g1 = sweep.get("lambda1_grid", (ExperimentConfig.lambda1,))
        g2 = sweep.get("lambda_adv_grid", (ExperimentConfig.lambda_adv,))
        kwargs["sweep_rows"] = tuple((a, b) for a in g1 for b in g2)
    return ExperimentConfig(raw=raw, synth=synth, **kwargs)


def normalized_text(cfg: ExperimentConfig) -> str:
    """Echo of the effective configuration, stable across runs."""
    lines = []
    for section in ("experiment", "data", "federation", "attack", "sweep"):
        entries = cfg.raw.get(section, {})
        if not entries:
            continue
        lines.append(f"[{section}]")
        for key in sorted(entries):
            val = entries[key]
            if isinstance(val, tuple) and val and isinstance(val[0], tuple):
                text = "; ".join(",".join(f"{x:g}" for x in row) for row in val)
            elif isinstance(val, tuple):
                text = ", ".join(str(v) for v in val)
            else:
                text = str(val)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)
