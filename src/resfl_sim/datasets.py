"""Synthetic group-structured classification data.

Features are class-conditional Gaussians. Each class has a fixed
direction in feature space; per-group amplitude offsets let a group's
class signal be weaker or stronger (a signal-to-noise lever). A
configurable fraction of coordinates additionally carries an additive
group code, so a probe (or the adversary head) can decode the sensitive
attribute from raw features. Per-group label-flip noise and unequal
group sizes provide the representation-disparity levers.

Also: non-IID Dirichlet partitioning across clients and a label-flip
poisoning transform targeting one group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .metrics import FAVORABLE_CLASS

PARTITION_TRIES = 10  # Dirichlet draws before partition gives up on empty shards


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of features ``X``, 0-based class labels ``y`` and 0-based
    group ids ``s``; indexing by a slice, mask or index array selects
    rows into a new Dataset."""
    X: np.ndarray
    y: np.ndarray
    s: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows) -> "Dataset":
        return Dataset(self.X[rows], self.y[rows], self.s[rows])


def _signal_directions(cfg: ExperimentConfig, rng: np.random.Generator):
    """Fixed class directions and group leak codes for one dataset draw.

    The codes are G x n_leak; they add to the first n_leak coordinates.
    """
    d = cfg.input_dim
    dirs = rng.standard_normal((cfg.num_classes, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    n_leak = int(round(cfg.attr_leak * d))
    codes = rng.standard_normal((cfg.num_groups, n_leak)) if n_leak else \
        np.zeros((cfg.num_groups, 0))
    return dirs, codes


def generate_dataset(cfg: ExperimentConfig, seed: int) -> Dataset:
    """The dataset of ``cfg``'s ``[data]`` generator keys: groups in
    order, each a contiguous block of rows.

    All draws come from one stream, in this order: the class directions
    and group codes, then for each group its labels and then its rows'
    noise. A group without label noise draws its noise block in one
    call, which consumes the stream as one draw per row would; a group
    with label noise draws each row's noise followed by that row's flip.
    Changing this order changes every byte of the dataset. Raises
    ValueError if a feature is not finite, so every model input is.
    """
    rng = np.random.default_rng([int(seed), 0x5EED])
    dirs, codes = _signal_directions(cfg, rng)
    n = sum(cfg.samples_per_group)
    s = np.repeat(np.arange(cfg.num_groups), cfg.samples_per_group)
    y = np.empty(n, dtype=int)
    flip_shift = np.zeros(n, dtype=int)  # label = (y + shift) % C
    X = np.empty((n, cfg.input_dim))  # the noise draws, then the features
    start = 0
    for g, n_g in enumerate(cfg.samples_per_group):
        y[start:start + n_g] = rng.integers(0, cfg.num_classes, size=n_g)
        flip = cfg.label_flip_noise[g]
        if flip == 0:
            rng.standard_normal(out=X[start:start + n_g])
        else:
            # each row's flip draw sits between its noise and the next
            # row's, so these rows are drawn one at a time
            for i in range(start, start + n_g):
                X[i] = rng.standard_normal(cfg.input_dim)
                if rng.random() < flip:
                    flip_shift[i] = 1 + rng.integers(0, cfg.num_classes - 1)
        start += n_g
    # in place, to hold one temporary: noise_std * z + amp * direction;
    # an overflow is reported once, below, for the whole array
    with np.errstate(over="ignore", invalid="ignore"):
        X *= cfg.noise_std
        signal = dirs[y]
        signal *= (2.0 * (1.0 + np.asarray(cfg.group_means)[s, y]))[:, None]
        X += signal
        X[:, :codes.shape[1]] += codes[s]  # the leak columns, through a view
    if not np.isfinite(X).all():
        raise ValueError("non-finite features: noise_std or group_means too large")
    return Dataset(X, (y + flip_shift) % cfg.num_classes, s)


def partition(dataset: Dataset, num_clients: int, beta: float, seed: int) -> list[Dataset]:
    """Non-IID split: per-group client proportions ~ Dirichlet(beta).

    Every sample lands on exactly one client; a shard holds its rows
    group by group, in dataset order within a group, so one client gets
    every row, in input order if the input is sorted by group. Empty
    shards trigger a resample, up to PARTITION_TRIES draws in all.
    ``num_clients`` >= 1 and ``beta`` > 0 are checked at config load.
    """
    rng = np.random.default_rng([int(seed), 0xD17])
    for _ in range(PARTITION_TRIES):
        rows: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for g in np.flatnonzero(np.bincount(dataset.s)):
            members = np.flatnonzero(dataset.s == g)
            props = rng.dirichlet(np.full(num_clients, beta))
            assignment = rng.choice(num_clients, size=len(members), p=props)
            for c in range(num_clients):
                rows[c].append(members[assignment == c])
        shards = [dataset[np.concatenate(r)] for r in rows]
        if all(shards):
            return shards
    raise RuntimeError(f"could not produce non-empty shards in {PARTITION_TRIES} tries")


def poison(shard: Dataset, target_group: int, rate: float, seed: int,
           num_classes: int) -> Dataset:
    """Append label-flipped clones of target-group samples.

    The injected set has size round(rate * len(shard)), drawn with
    replacement from the shard's target-group samples and relabeled to a
    wrong class drawn from all ``num_classes`` classes, the network's
    class count; a shard need not hold every class. Samples of the
    favorable class (``FAVORABLE_CLASS``) are cloned preferentially so
    the flips consistently push the target group toward unfavorable
    labels. Raises ValueError if the shard has no target-group sample,
    even at rate 0. ``rate`` in [0, 1] is checked at config load.
    """
    pool = np.flatnonzero(shard.s == target_group)
    if not len(pool):
        raise ValueError(f"shard has no samples of group {target_group}")
    favored = pool[shard.y[pool] == FAVORABLE_CLASS]
    if not len(favored):
        favored = pool
    rng = np.random.default_rng([int(seed), 0xB1A5])
    n_inject = int(round(rate * len(shard)))
    clones = shard[favored[rng.integers(0, len(favored), size=n_inject)]]
    wrong = (clones.y + 1 + rng.integers(0, num_classes - 1, size=n_inject)) % num_classes
    return Dataset(np.concatenate([shard.X, clones.X]),
                   np.concatenate([shard.y, wrong]),
                   np.concatenate([shard.s, clones.s]))
