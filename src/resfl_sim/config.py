"""Experiment configuration: flat ``key = value`` text with sections.

The format is deliberately diff-friendly: ``[section]`` headers, one
``key = value`` per line, ``#`` comments. Unknown sections or keys are
rejected with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .datasets import SynthSpec
from .federation import AGGREGATORS, FederationConfig


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
    seeds: tuple[int, ...]
    # the dataset's seed: the first of ``seeds`` as loaded, kept when a
    # --seed override replaces ``seeds``
    data_seed: int | None = None
    algorithms: tuple[str, ...] = ("fedavg", "resfl")
    out_dir: str | None = None
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
    eta_phi: float | None = None
    lambda1: float = 0.1
    lambda_adv: float = 0.01
    dp_epsilon: float = 0.1
    dp_clip: float = 1.0
    server_lr: float | None = None

    attack_kinds: tuple[str, ...] = ("mia", "aia", "byzantine", "poisoning")
    mia_overfit_size: int = 30
    mia_overfit_steps: int = 3000
    aia_trials: int = 100
    byzantine_fraction: float = 0.25
    byzantine_scale: float = 10.0
    poison_group: int | None = None
    poison_rate: float = 0.2

    sweep_rows: tuple[tuple[float, float], ...] = DEFAULT_SWEEP_ROWS

    def __post_init__(self):
        if self.data_seed is None:
            self.data_seed = self.seeds[0]

    def federation_config(self, algorithm: str, seed: int) -> FederationConfig:
        if algorithm not in AGGREGATORS:
            raise ConfigError(f"unknown algorithm {algorithm!r}")
        kwargs = dict(
            num_clients=self.num_clients,
            rounds=self.rounds,
            local_iterations=self.local_iterations,
            batch_size=self.batch_size,
            eta=self.eta,
            eta_phi=self.eta_phi,
            lambda1=self.lambda1,
            lambda_adv=self.lambda_adv,
            aggregator=algorithm,
            server_lr=self.server_lr,
            seed=seed,
        )
        if algorithm == "fedavg_dp":
            kwargs.update(dp_epsilon=self.dp_epsilon, dp_clip=self.dp_clip)
        return FederationConfig(**kwargs)


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
    for algo in exp.get("algorithms", ()):
        if algo not in AGGREGATORS:
            raise ConfigError(f"unknown algorithm {algo!r} in [experiment]")

    # only the keys in the file; ExperimentConfig's fields hold the defaults
    kwargs = {**exp, **fed,
              **{k: v for k, v in data.items() if k not in synth_kwargs},
              **{("attack_kinds" if k == "kinds" else k): v for k, v in atk.items()}}
    if "rows" in sweep:
        rows = sweep["rows"]
        if any(len(r) != 2 for r in rows):
            raise ConfigError("[sweep] rows entries must be 'lambda1,lambda_adv' pairs")
        kwargs["sweep_rows"] = tuple((r[0], r[1]) for r in rows)
    elif "lambda1_grid" in sweep or "lambda_adv_grid" in sweep:
        g1 = sweep.get("lambda1_grid", (0.1,))
        g2 = sweep.get("lambda_adv_grid", (0.01,))
        if any(v < 0 for v in g1 + g2):
            raise ConfigError("[sweep] grid values must be >= 0")
        kwargs["sweep_rows"] = tuple((a, b) for a in g1 for b in g2)

    cfg = ExperimentConfig(raw=raw, synth=synth, **kwargs)
    if not 0.0 < cfg.test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    return cfg


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
