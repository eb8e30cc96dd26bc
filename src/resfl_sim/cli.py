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
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attacks import LAMBDA1, aia_run, byzantine_run, mia_run, mia_threshold, \
    poisoning_run
from .config import ATTACK_KINDS, ConfigError, ExperimentConfig, load_config, \
    normalized_text
from .datasets import generate_dataset, partition
from .federation import initial_params, run_experiment
from .metrics import SCALAR_COLUMNS, MetricsRow, read_metrics, write_metrics


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


def _single_run(cfg: ExperimentConfig, algo: str, seed: int, train, test):
    shards = partition(train, cfg.num_clients, cfg.partition_beta, seed=seed)
    params, records = run_experiment(cfg, algo, seed, shards, test)
    rows = []
    for r in records:
        # the reporting clients' UFM in client order; a frozen round has none
        reported = r.ufm[~np.isnan(r.ufm)]
        rows.append(MetricsRow(
            algo=algo, seed=seed, round=r.round, accuracy=r.accuracy,
            acc_by_group=r.acc_by_group, di_dev=r.di_dev,
            delta_eop=r.delta_eop, eod=r.eod,
            ufm_mean=float(np.mean(reported)) if reported.size else float("nan"),
            unc_var=r.uncertainty_var,
        ))
    return params, rows


def _resolve_out(cfg: ExperimentConfig, cli_out: str | None) -> Path:
    out = cli_out or os.environ.get("RESFL_SIM_OUT") or cfg.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


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


def cmd_run(cfg: ExperimentConfig, seeds, out: Path) -> None:
    train, test = build_data(cfg)
    rows = [row for algo in cfg.algorithms for seed in seeds
            for row in _single_run(cfg, algo, seed, train, test)[1]]
    write_metrics(rows, out / "metrics.csv", num_groups=cfg.num_groups)
    write_summary(rows, seeds, out)


def _mia_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """The 1-client, 1-round config that trains every MIA model: the shadow
    model and the ``overfit`` target with ``fedavg``, the DP target with
    ``fedavg_dp``. The two targets share init and batches, so they differ
    only in the DP clip and noise."""
    return replace(cfg, num_clients=1, rounds=1, local_iterations=cfg.mia_overfit_steps,
                   batch_size=32, eta=0.1, eta_phi=0.1, lambda1=LAMBDA1, lambda_adv=0.0,
                   server_lr=1.0)


def _mia_setup(cfg: ExperimentConfig, train, test, seed: int):
    """(members, non-members, shadow threshold) of the MIA on ``seed``; the
    members are the targets' training set, the non-members a seeded random
    draw of as many test samples. The threshold depends on neither target
    nor lambda, so one serves every target of the seed."""
    order = np.random.default_rng([seed, 0x517A]).permutation(len(train))
    members = train[order[:cfg.mia_overfit_size]]
    shadow = train[order[cfg.mia_overfit_size:cfg.mia_overfit_size + 400]]
    draw = np.random.default_rng([seed, 0x4E4D]).permutation(len(test))
    tau = mia_threshold(_mia_config(cfg), seed, len(members), shadow)
    return members, test[draw[:len(members)]], tau


def cmd_sweep(cfg: ExperimentConfig, seeds, out: Path) -> None:
    train, test = build_data(cfg)
    rows_sorted = sorted(cfg.sweep_rows)
    mia = {seed: _mia_setup(cfg, train, test, seed) for seed in seeds}

    def work(cell):
        lam1, lam_adv = cell
        cell_cfg = replace(cfg, lambda1=lam1, lambda_adv=lam_adv)
        accs, dds, eops, mias, aias = [], [], [], [], []
        for seed in seeds:
            params, rows = _single_run(cell_cfg, "resfl", seed, train, test)
            final = rows[-1]
            accs.append(final.accuracy)
            dds.append(final.di_dev)
            eops.append(final.delta_eop)
            mias.append(mia_run(params, *mia[seed]).score)
            aias.append(aia_run(cfg, params, train, seed).score)
        return tuple(float(np.mean(v)) for v in (accs, dds, eops, mias, aias))

    results = [work(cell) for cell in rows_sorted]
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as f:
        f.write("lambda1,lambda_adv,accuracy,di_dev,delta_eop,mia_sr,aia_sr\n")
        for cell, (acc, dd, eop, mia, aia) in zip(rows_sorted, results):
            f.write(f"{cell[0]:g},{cell[1]:g},"
                    + ",".join(f"{v:.6f}" for v in (acc, dd, eop, mia, aia)) + "\n")


def cmd_attack(cfg: ExperimentConfig, seeds, out: Path, kind: str | None) -> None:
    kinds = (kind,) if kind else cfg.attack_kinds
    train, test = build_data(cfg)
    clean = {}  # (algo, seed) -> (shards, clean run), shared by the paired attacks
    lines = []
    for k in kinds:
        for seed in seeds:
            if k == "mia":
                members, nonmembers, tau = _mia_setup(cfg, train, test, seed)
                reports = []
                for name, aggregator in (("overfit", "fedavg"), ("fedavg_dp", "fedavg_dp")):
                    target, _ = run_experiment(_mia_config(cfg), aggregator, seed,
                                               [members], None)
                    reports.append(("mia", name, seed,
                                    mia_run(target, members, nonmembers, tau).score, {}))
            elif k == "aia":
                rep = aia_run(cfg, initial_params(cfg.network(), seed), train, seed)
                reports = [("aia", "init", seed, rep.score, rep.auxiliary)]
            else:
                reports = []
                for algo in cfg.algorithms:
                    if (algo, seed) not in clean:
                        shards = partition(train, cfg.num_clients,
                                           cfg.partition_beta, seed=seed)
                        clean[algo, seed] = shards, run_experiment(
                            cfg, algo, seed, shards, test)
                    shards, run = clean[algo, seed]
                    attack = byzantine_run if k == "byzantine" else poisoning_run
                    rep = attack(cfg, algo, seed, shards, test, run)
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
    write_summary(read_metrics(metrics_path), seeds, out)
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
        cfg = load_config(args.config)
        seeds = cfg.seeds if args.seed is None else (args.seed,)
        out = _resolve_out(cfg, args.out)
        if args.command == "report":
            return cmd_report(cfg, seeds, out)
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
