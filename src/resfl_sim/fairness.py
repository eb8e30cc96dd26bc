"""Group-level uncertainty statistics and the uncertainty fairness metric.

The metric compares per-group epistemic uncertainties u_g = 1/alpha0_g:

    ufm = (max_g u_g - min_g u_g) / (mean_g u_g + eps)

and a client's aggregation weight is omega = 1 / (1 + ufm). ufm is 0
when all groups receive equal confidence and approaches (but stays
below) G as a single group dominates the total uncertainty.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EPS = 1e-6


def group_uncertainties(alpha0, groups, num_groups: int) -> np.ndarray:
    """Per-group uncertainty: 1 / the group's mean total evidence.

    ``alpha0[i]`` is sample i's total evidence and ``groups[i]`` its
    0-based group id. Each group's evidence is a running sum in sample
    order. Groups with no samples are omitted; the rest come in group
    order.
    """
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    groups = np.asarray(groups, dtype=int)
    if not groups.size:
        raise ValueError("no samples")
    if groups.min() < 0 or groups.max() >= num_groups:
        raise ValueError(f"group ids out of range [0, {num_groups})")
    counts = np.bincount(groups, minlength=num_groups)
    sums = np.bincount(groups, weights=alpha0, minlength=num_groups)
    present = counts > 0
    return 1.0 / (sums[present] / counts[present])


def uncertainty_variance(us) -> float:
    """Population variance of per-group uncertainties."""
    us = np.asarray(us, dtype=float)
    if us.size == 0:
        raise ValueError("empty uncertainty list")
    return float(np.mean((us - us.mean()) ** 2))


def ufm(us, eps: float = DEFAULT_EPS) -> float:
    us = np.asarray(us, dtype=float)
    if us.size == 0:
        raise ValueError("empty uncertainty list")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    return float((us.max() - us.min()) / (us.mean() + eps))


def aggregation_weight(ufm_value: float) -> float:
    if ufm_value < 0:
        raise ValueError("ufm must be >= 0")
    return 1.0 / (1.0 + ufm_value)
