"""Command-line entry point.

    resfl-sim run    --config PATH [--out DIR] [--seed S]
    resfl-sim sweep  --config PATH [--out DIR] [--seed S]
    resfl-sim attack --config PATH [--kind NAME] [--out DIR] [--seed S]
    resfl-sim report --config PATH [--out DIR] [--seed S]

Exit codes: 0 success, 1 runtime failure, 2 usage/config error. The
RESFL_SIM_OUT environment variable overrides the default output
directory. All outputs are deterministic given config + seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attacks import ATTACK_KINDS, aia_run, byzantine_run, mia_run, mia_threshold, \
    poisoning_run, train_centralized
from .config import ConfigError, ExperimentConfig, load_config, normalized_text
from .datasets import generate_dataset, partition
from .federation import FederationConfig, run_experiment
from .metrics import SCALAR_COLUMNS, MetricsRow, read_metrics, write_metrics
from .network import init_params


def build_data(cfg: ExperimentConfig):
    """Train/test split sharing one signal draw: per group, scale the
    sample counts up, then hold out the tail fraction of each group.

    The draw uses the config file's first seed, so a ``--seed`` override
    trains on the same data as the full run."""
    scale = 1.0 / (1.0 - cfg.test_fraction)
    spg = tuple(max(int(round(n * scale)), n + 1 if n else 0)
                for n in cfg.synth.samples_per_group)
    full = generate_dataset(replace(cfg.synth, samples_per_group=spg),
                            seed=cfg.data_seed)
    # each group is one contiguous block; train on its head, test on its tail
    starts = np.cumsum(spg) - spg
    rank = np.arange(len(full)) - starts[full.s]
    is_train = rank < np.asarray(cfg.synth.samples_per_group)[full.s]
    return full[is_train], full[~is_train]


def _single_run(cfg: ExperimentConfig, algo: str, seed: int, train, test):
    shards = partition(train, cfg.num_clients, cfg.partition_beta, seed=seed)
    fed = cfg.federation_config(algo, seed)
    params, records = run_experiment(fed, shards, test, network=cfg.network())
    rows = [
        MetricsRow(
            algo=algo, seed=seed, round=r.round, accuracy=r.accuracy,
            acc_by_group=r.acc_by_group, di_dev=r.di_dev,
            delta_eop=r.delta_eop, eod=r.eod,
            # a frozen round has no client reports
            ufm_mean=float(np.mean(list(r.ufm_by_client.values())))
            if r.ufm_by_client else float("nan"),
            unc_var=r.uncertainty_var,
        )
        for r in records
    ]
    return params, rows


def _resolve_out(cfg: ExperimentConfig, cli_out: str | None) -> Path:
    out = cli_out or os.environ.get("RESFL_SIM_OUT") or cfg.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_seed_override(cfg: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    return cfg if seed is None else replace(cfg, seeds=(seed,))


def write_summary(rows, seeds, out: Path) -> None:
    """Write ``summary``: per algorithm, the mean over ``seeds`` of each
    (algo, seed) cell's last row, so a cell that stopped early counts with
    its last round. ``rows`` lists each cell's rows in round order."""
    last = {(r.algo, r.seed): r for r in rows}
    summary = {}
    for algo in dict.fromkeys(r.algo for r in rows):
        ran = [s for s in seeds if (algo, s) in last]
        if not ran:
            continue
        finals = [last[algo, s] for s in ran]
        summary[algo] = {col: float(np.mean([getattr(r, col) for r in finals]))
                         for col in SCALAR_COLUMNS}
        summary[algo]["seeds"] = ran
    (out / "summary").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")


def cmd_run(cfg: ExperimentConfig, out: Path) -> int:
    train, test = build_data(cfg)
    rows = [row for algo in cfg.algorithms for seed in cfg.seeds
            for row in _single_run(cfg, algo, seed, train, test)[1]]
    write_metrics(rows, out / "metrics.csv", num_groups=cfg.synth.num_groups)
    write_summary(rows, cfg.seeds, out)
    (out / "config.cfg").write_text(normalized_text(cfg), encoding="utf-8")
    return 0


def _mia_setup(cfg: ExperimentConfig, train, test, seed: int):
    """(members, non-members, shadow threshold) of the MIA on ``seed``; the
    members are the overfit target's training set. The threshold depends
    on neither target nor lambda, so one serves every target of the seed."""
    order = np.random.default_rng([seed, 0x517A]).permutation(len(train))
    members = train[order[:cfg.mia_overfit_size]]
    shadow = train[order[cfg.mia_overfit_size:cfg.mia_overfit_size + 400]]
    tau = mia_threshold(cfg.network(), len(members), shadow, seed,
                        shadow_steps=cfg.mia_overfit_steps)
    return members, test[:len(members)], tau


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    train, test = build_data(cfg)
    rows_sorted = sorted(cfg.sweep_rows)
    mia = {seed: _mia_setup(cfg, train, test, seed) for seed in cfg.seeds}

    def work(cell):
        lam1, lam_adv = cell
        cell_cfg = replace(cfg, lambda1=lam1, lambda_adv=lam_adv)
        accs, dds, eops, mias, aias = [], [], [], [], []
        for seed in cfg.seeds:
            params, rows = _single_run(cell_cfg, "resfl", seed, train, test)
            final = rows[-1]
            accs.append(final.accuracy)
            dds.append(final.di_dev)
            eops.append(final.delta_eop)
            mias.append(mia_run(params, *mia[seed]).score)
            aias.append(aia_run(params, train, cfg.synth.num_groups, seed=seed,
                                trials=cfg.aia_trials).score)
        return tuple(float(np.mean(v)) for v in (accs, dds, eops, mias, aias))

    results = [work(cell) for cell in rows_sorted]
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as f:
        f.write("lambda1,lambda_adv,accuracy,di_dev,delta_eop,mia_sr,aia_sr\n")
        for cell, (acc, dd, eop, mia, aia) in zip(rows_sorted, results):
            f.write(f"{cell[0]:g},{cell[1]:g},"
                    + ",".join(f"{v:.6f}" for v in (acc, dd, eop, mia, aia)) + "\n")
    (out / "config.cfg").write_text(normalized_text(cfg), encoding="utf-8")
    return 0


def cmd_attack(cfg: ExperimentConfig, out: Path, kind: str | None) -> int:
    kinds = (kind,) if kind else cfg.attack_kinds
    train, test = build_data(cfg)
    net = cfg.network()
    clean = {}  # (algo, seed) -> (fed, shards, clean run), shared by the paired attacks
    lines = []
    for k in kinds:
        for seed in cfg.seeds:
            if k == "mia":
                members, nonmembers, tau = _mia_setup(cfg, train, test, seed)
                target = train_centralized(members, net,
                                           steps=cfg.mia_overfit_steps,
                                           batch_size=32, eta=0.1, seed=seed)
                dp_fed = FederationConfig(
                    num_clients=1, rounds=1,
                    local_iterations=cfg.mia_overfit_steps, batch_size=32,
                    eta=0.1, eta_phi=0.1, lambda1=cfg.lambda1, lambda_adv=0.0,
                    aggregator="fedavg_dp", dp_epsilon=cfg.dp_epsilon,
                    dp_clip=cfg.dp_clip, server_lr=1.0, seed=seed)
                dp_target, _ = run_experiment(dp_fed, [members], None,
                                              network=net)
                reports = [
                    ("mia", "overfit", seed,
                     mia_run(target, members, nonmembers, tau).score, {}),
                    ("mia", "fedavg_dp", seed,
                     mia_run(dp_target, members, nonmembers, tau).score, {}),
                ]
            elif k == "aia":
                params = init_params(net, np.random.default_rng([seed, 0x1217]))
                rep = aia_run(params, train, cfg.synth.num_groups, seed=seed,
                              trials=cfg.aia_trials)
                reports = [("aia", "init", seed, rep.score, rep.auxiliary)]
            else:
                reports = []
                for algo in cfg.algorithms:
                    if (algo, seed) not in clean:
                        shards = partition(train, cfg.num_clients,
                                           cfg.partition_beta, seed=seed)
                        fed = cfg.federation_config(algo, seed)
                        clean[algo, seed] = fed, shards, run_experiment(
                            fed, shards, test, network=net)
                    fed, shards, run = clean[algo, seed]
                    if k == "byzantine":
                        rep = byzantine_run(fed, shards, test, run,
                                            cfg.byzantine_fraction,
                                            cfg.byzantine_scale)
                    else:
                        rep = poisoning_run(fed, shards, test, run, cfg.poison_group,
                                            cfg.poison_rate)
                    reports.append((k, algo, seed, rep.score, rep.auxiliary))
            for name, algo, sd, score, aux in reports:
                aux_text = ";".join(f"{a}={v:g}" for a, v in sorted(aux.items()))
                lines.append(f"{name},{algo},{sd},{score:.6f},{aux_text}")
    # rewritten whole-file per invocation so reruns are byte-identical
    with open(out / "attacks.csv", "w", encoding="utf-8", newline="") as f:
        f.write("attack,algo,seed,score,aux\n")
        for line in lines:
            f.write(line + "\n")
    return 0


def cmd_report(cfg: ExperimentConfig, out: Path) -> int:
    metrics_path = out / "metrics.csv"
    if not metrics_path.exists():
        print(f"error: {metrics_path} not found; run 'resfl-sim run' first",
              file=sys.stderr)
        return 1
    write_summary(read_metrics(metrics_path), cfg.seeds, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resfl-sim",
                                     description="Federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "attack", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "attack":
            p.add_argument("--kind", choices=ATTACK_KINDS, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_seed_override(load_config(args.config), args.seed)
        out = _resolve_out(cfg, args.out)
        if args.command == "run":
            return cmd_run(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        if args.command == "attack":
            return cmd_attack(cfg, out, args.kind)
        return cmd_report(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
