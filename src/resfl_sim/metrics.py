"""Fairness and utility metrics plus deterministic CSV emission.

Fairness metrics reduce per-group confusion counts. Two-group formulas
generalize to more groups by taking the worst (maximum) pairwise value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

DI_CAP = 1.0


@dataclass(frozen=True)
class GroupCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.fp + self.tn

    @property
    def predicted_positive_rate(self) -> float:
        return (self.tp + self.fp) / self.total

    @property
    def tpr(self) -> float:
        return self.tp / self.positives

    @property
    def fpr(self) -> float:
        return self.fp / self.negatives


@dataclass(frozen=True)
class GroupConfusion:
    by_group: dict[int, GroupCounts]
    favorable_class: int = 1


def confusion_by_group(predictions, labels, groups,
                       favorable_class: int = 1) -> GroupConfusion:
    """Per-group confusion counts; 'positive' = the favorable class."""
    pred_pos = np.asarray(predictions) == favorable_class
    actual_pos = np.asarray(labels) == favorable_class
    groups = np.asarray(groups, dtype=int)
    if not len(pred_pos) == len(actual_pos) == len(groups):
        raise ValueError("predictions and eval set are misaligned")
    # cell 0, 1, 2, 3 = tp, fp, tn, fn
    cell = 2 * ~pred_pos + (pred_pos != actual_pos)
    size = 4 * (groups.max() + 1) if groups.size else 0
    counts = np.bincount(4 * groups + cell, minlength=size).reshape(-1, 4)
    return GroupConfusion(
        by_group={g: GroupCounts(*(int(v) for v in c))
                  for g, c in enumerate(counts) if c.any()},
        favorable_class=favorable_class,
    )


def di_deviation(conf: GroupConfusion) -> tuple[float, bool]:
    """|1 - DI| with the higher-rate group as denominator; max over pairs.

    Returns (value, degenerate_flag); the flag is set and the configured
    cap returned when no group predicts the favorable class at all.
    """
    rates = [c.predicted_positive_rate for c in conf.by_group.values()]
    if len(rates) < 2:
        raise ValueError("need at least 2 groups")
    if max(rates) == 0.0:
        return DI_CAP, True
    worst = 0.0
    for ra, rb in itertools.combinations(rates, 2):
        hi, lo = max(ra, rb), min(ra, rb)
        if hi > 0:
            worst = max(worst, abs(1.0 - lo / hi))
    return worst, False


def delta_eop(conf: GroupConfusion) -> float:
    """Max pairwise TPR gap; groups without positives are excluded."""
    tprs = [c.tpr for c in conf.by_group.values() if c.positives > 0]
    if len(tprs) < 2:
        raise ValueError("need at least 2 groups with positive examples")
    return max(tprs) - min(tprs)


def eod(conf: GroupConfusion) -> float:
    """Max over group pairs of |dTPR| + |dFPR|."""
    usable = [c for c in conf.by_group.values() if c.positives > 0 and c.negatives > 0]
    if len(usable) < 2:
        raise ValueError("need at least 2 groups with both positives and negatives")
    worst = 0.0
    for a, b in itertools.combinations(usable, 2):
        worst = max(worst, abs(a.tpr - b.tpr) + abs(a.fpr - b.fpr))
    return worst


def accuracy_by_group(predictions, labels, groups, num_groups: int):
    """(overall accuracy, per-group accuracy array; NaN for empty groups)."""
    hit = np.asarray(predictions, dtype=int) == np.asarray(labels, dtype=int)
    groups = np.asarray(groups, dtype=int)
    counts = np.bincount(groups, minlength=num_groups)
    hits = np.bincount(groups, weights=hit, minlength=num_groups)
    with np.errstate(invalid="ignore"):
        per_group = hits / counts
    return float(hit.mean()), per_group


@dataclass(frozen=True)
class MetricsRow:
    algo: str
    seed: int
    round: int
    accuracy: float
    acc_by_group: tuple[float, ...]
    di_dev: float
    delta_eop: float
    eod: float
    ufm_mean: float
    unc_var: float


# MetricsRow's per-round scalars, in CSV column order
SCALAR_COLUMNS = ("accuracy", "di_dev", "delta_eop", "eod", "ufm_mean", "unc_var")


def read_metrics(path) -> list[MetricsRow]:
    """The rows of a ``write_metrics`` CSV, at its 6-decimal precision."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        records = [dict(zip(header, line.strip().split(","))) for line in f]
    return [MetricsRow(
        algo=r["algo"], seed=int(r["seed"]), round=int(r["round"]),
        acc_by_group=tuple(float(v) for k, v in r.items() if k.startswith("acc_g")),
        **{k: float(r[k]) for k in SCALAR_COLUMNS})
        for r in records]


def write_metrics(rows, path, num_groups: int | None = None) -> None:
    """Fixed-schema CSV: 6-decimal floats, rows sorted, trailing newline."""
    rows = sorted(rows, key=lambda r: (r.algo, r.seed, r.round))
    if num_groups is None:
        num_groups = len(rows[0].acc_by_group) if rows else 0
    group_cols = ",".join(f"acc_g{i + 1}" for i in range(num_groups))
    header = "algo,seed,round,accuracy," + (group_cols + "," if group_cols else "") \
        + "di_dev,delta_eop,eod,ufm_mean,unc_var"
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(header + "\n")
            for r in rows:
                vals = [r.accuracy, *r.acc_by_group, r.di_dev, r.delta_eop,
                        r.eod, r.ufm_mean, r.unc_var]
                f.write(f"{r.algo},{r.seed},{r.round},"
                        + ",".join(f"{v:.6f}" for v in vals) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing metrics to {path}: {exc}") from exc
