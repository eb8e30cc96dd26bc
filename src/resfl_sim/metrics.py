"""Fairness and utility metrics plus deterministic CSV emission.

Fairness metrics reduce a count array with one (tp, fp, tn, fn) row per
group. Two-group formulas generalize to more groups by taking the worst
(maximum) pairwise value.
"""

from __future__ import annotations

import numpy as np

DI_CAP = 1.0
FAVORABLE_CLASS = 1  # the "positive" outcome of every fairness metric


def confusion_by_group(predictions: np.ndarray, labels: np.ndarray,
                       groups: np.ndarray) -> np.ndarray:
    """Per-group confusion counts: one (tp, fp, tn, fn) int row per group
    that has samples, in group order; 'positive' = FAVORABLE_CLASS."""
    pred_pos = predictions == FAVORABLE_CLASS
    actual_pos = labels == FAVORABLE_CLASS
    if not len(pred_pos) == len(actual_pos) == len(groups):
        raise ValueError("predictions and eval set are misaligned")
    # cell 0, 1, 2, 3 = tp, fp, tn, fn
    cell = 2 * ~pred_pos + (pred_pos != actual_pos)
    size = 4 * (groups.max() + 1) if groups.size else 0
    counts = np.bincount(4 * groups + cell, minlength=size).reshape(-1, 4)
    return counts[counts.any(axis=1)]


def di_deviation(conf: np.ndarray) -> float:
    """|1 - DI| with the higher-rate group as denominator, worst pair:
    1 - min/max of the predicted-positive rates. DI_CAP when no group
    predicts the favorable class; NaN when undefined, below 2 groups."""
    if len(conf) < 2:
        return float("nan")
    rates = (conf[:, 0] + conf[:, 1]) / conf.sum(axis=1)
    hi = rates.max()
    return DI_CAP if hi == 0.0 else float(1.0 - rates.min() / hi)


def delta_eop(conf: np.ndarray) -> float:
    """Max pairwise TPR gap over the groups with positives; NaN when
    undefined, below 2 such groups."""
    pos = conf[:, 0] + conf[:, 3]
    tpr = conf[pos > 0, 0] / pos[pos > 0]
    if len(tpr) < 2:
        return float("nan")
    return float(tpr.max() - tpr.min())


def eod(conf: np.ndarray) -> float:
    """Max over the pairs of groups with positives and negatives of
    |dTPR| + |dFPR|; NaN when undefined, below 2 such groups."""
    tp, fp, tn, fn = conf.T
    pos, neg = tp + fn, fp + tn
    usable = (pos > 0) & (neg > 0)
    if np.count_nonzero(usable) < 2:
        return float("nan")
    tpr, fpr = tp[usable] / pos[usable], fp[usable] / neg[usable]
    return float((np.abs(tpr[:, None] - tpr) + np.abs(fpr[:, None] - fpr)).max())


def accuracy_by_group(predictions: np.ndarray, labels: np.ndarray, groups: np.ndarray,
                      num_groups: int):
    """(overall accuracy, per-group accuracy array; NaN for empty groups)."""
    hit = predictions == labels
    counts = np.bincount(groups, minlength=num_groups)
    hits = np.bincount(groups, weights=hit, minlength=num_groups)
    with np.errstate(invalid="ignore"):
        per_group = hits / counts
    return float(hit.mean()), per_group


# the per-round columns ``summary`` averages, in CSV order; acc_g* follow accuracy
SCALAR_COLUMNS = ("accuracy", "di_dev", "delta_eop", "eod", "ufm_mean", "unc_var")


def read_metrics(path) -> list[dict]:
    """The rows of a ``write_metrics`` CSV as dicts keyed by column:
    ``algo`` text, ``seed`` and ``round`` ints, and every other column the
    exact float it was written from. A header without one of ``algo``,
    ``seed``, ``round`` and ``SCALAR_COLUMNS``, a line whose field count
    differs from the header's and a value that does not parse each raise
    ValueError naming the file and line."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        lines = [line.strip().split(",") for line in f]
    missing = [k for k in ("algo", "seed", "round", *SCALAR_COLUMNS) if k not in header]
    if missing:
        raise ValueError(f"{path} line 1: no column {', '.join(missing)}")
    rows = []
    for lineno, row in enumerate(lines, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path} line {lineno}: {len(row)} fields, not {len(header)}")
        try:
            rows.append({k: v if k == "algo" else int(v) if k in ("seed", "round")
                         else float(v) for k, v in zip(header, row)})
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    return rows


def write_metrics(cells, path, num_groups: int) -> None:
    """Fixed-schema CSV of ``(algo, seed, records)`` cells, one row per
    ``RoundRecord``, sorted by (algo, seed) with each cell's records in
    round order. Each float is written as its shortest round-trip text,
    so the file holds the exact values; trailing newline."""
    first, *rest = SCALAR_COLUMNS
    header = ["algo", "seed", "round", first,
              *(f"acc_g{i + 1}" for i in range(num_groups)), *rest]
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(",".join(header) + "\n")
            for algo, seed, records in sorted(cells, key=lambda c: c[:2]):
                for r in records:
                    vals = [getattr(r, first), *r.acc_by_group,
                            *(getattr(r, col) for col in rest)]
                    f.write(f"{algo},{seed},{r.round},"
                            + ",".join(repr(float(v)) for v in vals) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing metrics to {path}: {exc}") from exc
