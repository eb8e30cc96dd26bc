"""Command-line entry point.

    resfl-sim run    --config PATH [--out DIR] [--seed S]
    resfl-sim sweep  --config PATH [--out DIR] [--seed S]
    resfl-sim attack --config PATH [--kind NAME] [--out DIR] [--seed S]
    resfl-sim report --config PATH [--out DIR] [--seed S]

Exit codes: 0 success, 1 runtime failure, 2 usage/config error. The
RESFL_SIM_OUT environment variable overrides the default output
directory. A successful run, sweep or attack writes ``config.cfg``, the
effective config, which ``--seed`` and ``--kind`` select from but do not
change. All outputs are deterministic given config + seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attacks import aia_run, byzantine_clients, byzantine_run, mia_config, mia_pools, \
    mia_run, mia_threshold, poisoned_shards, poisoning_run
from .config import ATTACK_KINDS, ConfigError, ExperimentConfig, load_config, \
    normalized_text
from .datasets import generate_dataset, partition
from .federation import initial_params, run_experiment
from .metrics import SCALAR_COLUMNS, read_metrics, write_metrics


def build_data(cfg: ExperimentConfig):
    """Train/test split sharing one signal draw: per group, scale the
    sample counts up, then hold out the tail fraction of each group.

    The draw uses the config's first seed, so a ``--seed`` selection
    trains on the same data as the full run."""
    scale = 1.0 / (1.0 - cfg.test_fraction)
    spg = tuple(max(int(round(n * scale)), n + 1 if n else 0)
                for n in cfg.samples_per_group)
    full = generate_dataset(replace(cfg, samples_per_group=spg), seed=cfg.seeds[0])
    # each group is one contiguous block; train on its head, test on its tail
    starts = np.cumsum(spg) - spg
    rank = np.arange(len(full)) - starts[full.s]
    is_train = rank < np.asarray(cfg.samples_per_group)[full.s]
    return full[is_train], full[~is_train]


def shards_by_seed(cfg: ExperimentConfig, train):
    """seed -> the client shards of ``train``, partitioned on first use: a
    command partitions each seed once, shares the shard list among its
    cells, and partitions only if one of its cells trains on shards."""
    return functools.cache(
        lambda seed: partition(train, cfg.num_clients, cfg.partition_beta, seed=seed))


def write_summary(seeds, out: Path) -> None:
    """Write ``summary`` from ``out``'s ``metrics.csv``: per algorithm, the
    mean over ``seeds`` of each (algo, seed) cell's last row, so a cell
    that stopped early counts with its last round. The file is strict
    JSON: a mean that is not finite is written as null. Raises, writing
    nothing, when no cell of ``seeds`` has a row."""
    rows = read_metrics(out / "metrics.csv")
    last = {(r["algo"], r["seed"]): r for r in rows}  # rows are in round order
    summary = {}
    for algo in dict.fromkeys(r["algo"] for r in rows):
        ran = [s for s in seeds if (algo, s) in last]
        if not ran:
            continue
        finals = [last[algo, s] for s in ran]
        means = {col: float(np.mean([r[col] for r in finals])) for col in SCALAR_COLUMNS}
        summary[algo] = {col: m if math.isfinite(m) else None for col, m in means.items()}
        summary[algo]["seeds"] = ran
    if not summary:
        raise ValueError(f"{out / 'metrics.csv'} has no rows of seeds "
                         f"{', '.join(map(str, seeds))}")
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    (out / "summary").write_text(text + "\n", encoding="utf-8")


def cmd_run(cfg: ExperimentConfig, seeds, out: Path) -> None:
    train, test = build_data(cfg)
    shards = shards_by_seed(cfg, train)
    cells = {(algo, seed): (cfg, algo, seed, shards(seed), test)
             for algo in cfg.algorithms for seed in seeds}
    runs = {key: run_experiment(*arguments) for key, arguments in cells.items()}
    write_metrics([(algo, seed, records) for (algo, seed), (_, records) in runs.items()],
                  out / "metrics.csv", num_groups=cfg.num_groups)
    write_summary(seeds, out)


def cmd_sweep(cfg: ExperimentConfig, seeds, out: Path) -> None:
    train, test = build_data(cfg)
    shards = shards_by_seed(cfg, train)
    rows_sorted = sorted(cfg.rows)
    pools = {seed: mia_pools(cfg, train, test, seed) for seed in seeds}
    cells = {("shadow", seed): (mia_config(cfg), "fedavg", seed, [pools[seed][2]], None)
             for seed in seeds}
    for lam1, lam_adv in rows_sorted:
        cell_cfg = replace(cfg, lambda1=lam1, lambda_adv=lam_adv)
        cells.update({(lam1, lam_adv, seed): (cell_cfg, "resfl", seed, shards(seed), test)
                      for seed in seeds})
    runs = {key: run_experiment(*arguments) for key, arguments in cells.items()}
    tau = {seed: mia_threshold(runs["shadow", seed][0], *pools[seed][2:]) for seed in seeds}
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as f:
        f.write("lambda1,lambda_adv,accuracy,di_dev,delta_eop,mia_sr,aia_sr\n")
        for lam1, lam_adv in rows_sorted:
            per_seed = []
            for seed in seeds:
                params, records = runs[lam1, lam_adv, seed]
                final = records[-1]
                per_seed.append((final.accuracy, final.di_dev, final.delta_eop,
                                 mia_run(params, *pools[seed][:2], tau[seed]).score,
                                 aia_run(cfg, params, train, seed).score))
            f.write(f"{lam1:g},{lam_adv:g},"
                    + ",".join(f"{np.mean(v):.6f}" for v in zip(*per_seed)) + "\n")


def cmd_attack(cfg: ExperimentConfig, seeds, out: Path, kind: str | None) -> None:
    kinds = (kind,) if kind else cfg.kinds
    train, test = build_data(cfg)
    shards = shards_by_seed(cfg, train)
    pools, cells = {}, {}
    for k in kinds:
        for seed in seeds:
            if k == "mia":
                pools[seed] = mia_pools(cfg, train, test, seed)
                members, _, shadow_members, _ = pools[seed]
                for name, aggregator, samples in (("shadow", "fedavg", shadow_members),
                                                  ("overfit", "fedavg", members),
                                                  ("fedavg_dp", "fedavg_dp", members)):
                    cells[name, seed] = (mia_config(cfg), aggregator, seed, [samples], None)
            elif k != "aia":
                byzantine, attacked = None, shards(seed)
                if k == "byzantine":
                    byzantine = byzantine_clients(cfg, shards(seed))
                else:
                    attacked = poisoned_shards(cfg, shards(seed), seed)
                for algo in cfg.algorithms:
                    # one clean run of each (algorithm, seed) serves both paired attacks
                    cells["clean", algo, seed] = (cfg, algo, seed, shards(seed), test)
                    cells[k, algo, seed] = (cfg, algo, seed, attacked, test, byzantine)
    runs = {key: run_experiment(*arguments) for key, arguments in cells.items()}
    lines = []
    for k in kinds:
        for seed in seeds:
            if k == "mia":
                members, nonmembers, *shadow_pools = pools[seed]
                tau = mia_threshold(runs["shadow", seed][0], *shadow_pools)
                reports = [("mia", name, seed, mia_run(runs[name, seed][0], members,
                                                       nonmembers, tau).score, {})
                           for name in ("overfit", "fedavg_dp")]
            elif k == "aia":
                rep = aia_run(cfg, initial_params(cfg.network(), seed), train, seed)
                reports = [("aia", "init", seed, rep.score, rep.auxiliary)]
            else:
                reports = []
                for algo in cfg.algorithms:
                    clean, attacked = runs["clean", algo, seed][1], runs[k, algo, seed][1]
                    if k == "byzantine":  # the cell's last argument is its ByzantineSpec
                        rep = byzantine_run(clean, attacked, cells[k, algo, seed][-1])
                    else:
                        rep = poisoning_run(clean, attacked, cfg.poison_rate)
                    reports.append((k, algo, seed, rep.score, rep.auxiliary))
            for name, algo, sd, score, aux in reports:
                aux_text = ";".join(f"{a}={v:g}" for a, v in sorted(aux.items()))
                lines.append(f"{name},{algo},{sd},{score:.6f},{aux_text}")
    # rewritten whole-file per invocation so reruns are byte-identical
    with open(out / "attacks.csv", "w", encoding="utf-8", newline="") as f:
        f.write("attack,algo,seed,score,aux\n")
        for line in lines:
            f.write(line + "\n")


def cmd_report(cfg: ExperimentConfig, seeds, out: Path) -> int:
    metrics_path = out / "metrics.csv"
    if not metrics_path.exists():
        print(f"error: {metrics_path} not found; run 'resfl-sim run' first",
              file=sys.stderr)
        return 1
    write_summary(seeds, out)
    return 0


def _seed(text: str) -> int:
    """``--seed``'s type: an integer >= 0, the range of each of ``seeds``."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resfl-sim",
                                     description="Federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "attack", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=_seed, default=None)
        if name == "attack":
            p.add_argument("--kind", choices=ATTACK_KINDS, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seeds = cfg.seeds if args.seed is None else (args.seed,)
        out = Path(args.out or os.environ.get("RESFL_SIM_OUT") or cfg.out_dir)
        if args.command == "report":
            return cmd_report(cfg, seeds, out)  # reads out, so creates nothing
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            cmd_run(cfg, seeds, out)
        elif args.command == "sweep":
            cmd_sweep(cfg, seeds, out)
        else:
            cmd_attack(cfg, seeds, out, args.kind)
        (out / "config.cfg").write_text(normalized_text(cfg), encoding="utf-8")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
