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

import hashlib
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class SynthSpec:
    input_dim: int = 20
    num_classes: int = 2
    num_groups: int = 4
    samples_per_group: tuple[int, ...] = (2000, 1500, 1000, 500)
    group_means: tuple[tuple[float, ...], ...] | None = None  # G x C amplitude offsets
    noise_std: float = 1.0
    attr_leak: float = 0.5  # fraction of coords carrying group signal
    label_flip_noise: tuple[float, ...] | None = None  # per group, in [0, 0.5)

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 2 or self.num_groups < 1:
            raise ValueError("bad dimensions")
        if len(self.samples_per_group) != self.num_groups:
            raise ValueError("samples_per_group length must equal num_groups")
        if any(n < 0 for n in self.samples_per_group):
            raise ValueError("samples_per_group must be >= 0")
        if sum(n > 0 for n in self.samples_per_group) < 2:
            raise ValueError("need at least two groups with samples")
        if not 0.0 <= self.attr_leak <= 1.0:
            raise ValueError("attr_leak must be in [0, 1]")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        gm = self.group_means
        if gm is None:
            gm = tuple(tuple(0.0 for _ in range(self.num_classes))
                       for _ in range(self.num_groups))
        else:
            gm = tuple(tuple(float(v) for v in row) for row in gm)
            if len(gm) != self.num_groups or any(len(r) != self.num_classes for r in gm):
                raise ValueError("group_means must be G x C")
        object.__setattr__(self, "group_means", gm)
        lf = self.label_flip_noise
        if lf is None:
            lf = tuple(0.0 for _ in range(self.num_groups))
        else:
            lf = tuple(float(v) for v in lf)
            if len(lf) != self.num_groups:
                raise ValueError("label_flip_noise length must equal num_groups")
            if any(not 0.0 <= v < 0.5 for v in lf):
                raise ValueError("label_flip_noise entries must be in [0, 0.5)")
        object.__setattr__(self, "label_flip_noise", lf)
        object.__setattr__(self, "samples_per_group", tuple(self.samples_per_group))

    def spec_hash(self) -> str:
        text = repr((self.input_dim, self.num_classes, self.num_groups,
                     self.samples_per_group, self.group_means, self.noise_std,
                     self.attr_leak, self.label_flip_noise))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _signal_directions(spec: SynthSpec, rng: np.random.Generator):
    """Fixed class directions and group leak codes for one dataset draw.

    The codes are G x n_leak; they add to the first n_leak coordinates.
    """
    d = spec.input_dim
    dirs = rng.standard_normal((spec.num_classes, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    n_leak = int(round(spec.attr_leak * d))
    codes = rng.standard_normal((spec.num_groups, n_leak)) if n_leak else \
        np.zeros((spec.num_groups, 0))
    return dirs, codes


def generate_dataset(spec: SynthSpec, seed: int) -> Dataset:
    """Groups in order, each a contiguous block of rows.

    All draws come from one stream, in this order: the class directions
    and group codes, then for each group its labels and then its rows'
    noise. A group without label noise draws its noise block in one
    call, which consumes the stream as one draw per row would; a group
    with label noise draws each row's noise followed by that row's flip.
    Changing this order changes every byte of the dataset. Raises
    ValueError if a feature is not finite, so every model input is.
    """
    rng = np.random.default_rng([int(seed), 0x5EED])
    dirs, codes = _signal_directions(spec, rng)
    n = sum(spec.samples_per_group)
    s = np.repeat(np.arange(spec.num_groups), spec.samples_per_group)
    y = np.empty(n, dtype=int)
    flip_shift = np.zeros(n, dtype=int)  # label = (y + shift) % C
    X = np.empty((n, spec.input_dim))  # the noise draws, then the features
    start = 0
    for g, n_g in enumerate(spec.samples_per_group):
        y[start:start + n_g] = rng.integers(0, spec.num_classes, size=n_g)
        flip = spec.label_flip_noise[g]
        if flip == 0:
            rng.standard_normal(out=X[start:start + n_g])
        else:
            # each row's flip draw sits between its noise and the next
            # row's, so these rows are drawn one at a time
            for i in range(start, start + n_g):
                X[i] = rng.standard_normal(spec.input_dim)
                if rng.random() < flip:
                    flip_shift[i] = 1 + rng.integers(0, spec.num_classes - 1)
        start += n_g
    # in place, to hold one temporary: noise_std * z + amp * direction;
    # an overflow is reported once, below, for the whole array
    with np.errstate(over="ignore", invalid="ignore"):
        X *= spec.noise_std
        signal = dirs[y]
        signal *= (2.0 * (1.0 + np.asarray(spec.group_means)[s, y]))[:, None]
        X += signal
        X[:, :codes.shape[1]] += codes[s]  # the leak columns, through a view
    if not np.isfinite(X).all():
        raise ValueError("non-finite features: noise_std or group_means too large")
    return Dataset(X, (y + flip_shift) % spec.num_classes, s)


def partition(dataset: Dataset, num_clients: int, beta: float, seed: int) -> list[Dataset]:
    """Non-IID split: per-group client proportions ~ Dirichlet(beta).

    Every sample lands on exactly one client; a shard holds its rows
    group by group, in dataset order within a group. Empty shards
    trigger a resample, up to PARTITION_TRIES draws in all.
    ``num_clients`` >= 1 and ``beta`` > 0 are checked at config load.
    """
    if num_clients == 1:
        return [dataset]
    rng = np.random.default_rng([int(seed), 0xD17])
    for _ in range(PARTITION_TRIES):
        rows: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for g in np.unique(dataset.s):
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
    labels. ``rate`` in [0, 1] is checked at config load.
    """
    if rate == 0.0:
        return shard
    pool = np.flatnonzero(shard.s == target_group)
    if not len(pool):
        raise ValueError(f"shard has no samples of group {target_group}")
    favored = pool[shard.y[pool] == FAVORABLE_CLASS]
    if not len(favored):
        favored = pool
    rng = np.random.default_rng([int(seed), 0xB1A5])
    n_inject = int(round(rate * len(shard)))
    clones = shard[favored[rng.integers(0, len(favored), size=n_inject)]]
    # one scalar draw per clone, in clone order: one array draw would
    # consume the stream differently and change every clone's label
    wrong = np.array([(label + 1 + rng.integers(0, num_classes - 1)) % num_classes
                      for label in clones.y], dtype=int)
    return Dataset(np.concatenate([shard.X, clones.X]),
                   np.concatenate([shard.y, wrong]),
                   np.concatenate([shard.s, clones.s]))
