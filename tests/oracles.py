"""Single-sample reference implementations of the package's batch math.

The package computes every loss on batches (``evidential_terms_batch``,
``composite_gradients``). These one-sample versions state the same
formulas directly, so tests can compare the batch code against them and
state properties on a single Dirichlet output. ``logits_for`` builds
inputs for hand-value tests of the batch code, and ``segment_view``
names the three parameter segments. ``reference_step`` is
the local SGD step written as two passes and a functional update.
``data_config`` builds the checked config a test draws data from, and
``reference_generate_dataset`` draws the synthetic dataset one row at a
time, the draw order ``datasets.generate_dataset`` must keep, and
``reference_poison`` draws each poisoning clone's wrong label on its
own, the stream use ``datasets.poison`` must keep. The
``reference_*`` fairness metrics reduce per-group counts one group or
one pair of groups at a time, as the worst-pair definitions read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from resfl_sim.adversarial import PROB_FLOOR, softmax
from resfl_sim.config import ExperimentConfig
from resfl_sim.datasets import Dataset, _signal_directions
from resfl_sim.metrics import DI_CAP, FAVORABLE_CLASS
from resfl_sim.network import ParameterSet


@dataclass(frozen=True)
class EvidentialOutput:
    alpha: np.ndarray

    @property
    def total_evidence(self) -> float:
        return float(np.sum(self.alpha))

    @property
    def p_hat(self) -> np.ndarray:
        return self.alpha / self.total_evidence

    @property
    def epistemic_uncertainty(self) -> float:
        return 1.0 / self.total_evidence


def evidence_from_logits(z: np.ndarray) -> EvidentialOutput:
    """alpha_c = 1 + softplus(z_c), stable for |z| up to ~1e3."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    return EvidentialOutput(alpha=1.0 + np.logaddexp(0.0, z))


def evidential_nll(y: np.ndarray, out: EvidentialOutput) -> float:
    """The Brier score sum_c (y_c - p_hat_c)^2, without Sensoy's variance
    term p_hat_c(1-p_hat_c)/(alpha0+1); the y_c(1-y_c)/(alpha0+1) added
    here is 0 for one-hot y and is not that term."""
    y = np.asarray(y, dtype=float)
    p = out.p_hat
    a0 = out.total_evidence
    return float(np.sum((y - p) ** 2) + np.sum(y * (1.0 - y)) / (a0 + 1.0))


def evidential_reg(y: np.ndarray, out: EvidentialOutput) -> float:
    """Overconfidence penalty: sum_c |y_c - p_hat_c| * (2*alpha0 + 1)."""
    y = np.asarray(y, dtype=float)
    return float(np.sum(np.abs(y - out.p_hat)) * (2.0 * out.total_evidence + 1.0))


def adversary_forward(params: ParameterSet, h: np.ndarray) -> np.ndarray:
    """Group probabilities from a latent vector via the linear adversary."""
    Wa, ba = params.adversary_head
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite latent")
    return softmax((h @ Wa.T + ba)[None, :])[0]


def adversary_loss(probs: np.ndarray, s: int) -> float:
    """-log P(s), with a probability floor for numerical safety."""
    probs = np.asarray(probs, dtype=float)
    if not 0 <= s < probs.shape[-1]:
        raise ValueError(f"group index {s} out of range")
    return float(-np.log(max(probs[s], PROB_FLOOR)))


def segment_view(params: ParameterSet, name: str) -> np.ndarray:
    """View of one segment of a set's flat vector: ``theta_f`` (the
    feature layers), ``theta_e`` (the task head) or ``phi`` (the
    adversary head)."""
    We, be = params.task_head
    nf = params.spec.theta_size - We.size - be.size
    return {"theta_f": params.theta[:nf], "theta_e": params.theta[nf:],
            "phi": params.phi}[name]


def logits_for(alpha) -> np.ndarray:
    """Logits z with 1 + softplus(z) = alpha, so hand values stated in
    alpha can be fed to the batch code; alpha = 1 maps to z = -800."""
    e = np.asarray(alpha, dtype=float) - 1.0
    with np.errstate(divide="ignore"):
        z = e + np.log(-np.expm1(-e))  # log(exp(e) - 1) without overflow
    return np.where(e > 0, z, -800.0)


def reference_step(params: ParameterSet, X, y, s, eta: float, eta_phi: float,
                   lambda1: float, lambda_adv: float):
    """One local SGD step as two passes, returning a new ParameterSet and
    the (task, uncertainty, adversary) loss means.

    It states ``adversarial.local_train_step`` the long way: one-hot
    labels with the soft-label Brier term, the gradient segments joined
    by concatenation, ``np.mean`` losses and a functional update. The
    package must give the same bits.
    """
    spec = params.spec
    n = X.shape[0]

    def forward(p):
        acts, pres, a = [X], [], X
        for W, b in p.layers:
            pre = a @ W.T + b
            a = np.maximum(pre, 0.0)
            pres.append(pre)
            acts.append(a)
        (We, be), (Wa, ba) = p.task_head, p.adversary_head
        return acts, pres, a, a @ We.T + be, a @ Wa.T + ba

    def one_hot(idx, width):
        out = np.zeros((len(idx), width))
        out[np.arange(len(idx)), idx] = 1.0
        return out

    _, _, H, Zt, Za = forward(params)
    Y = one_hot(y, spec.num_classes)
    A = 1.0 + np.logaddexp(0.0, Zt)
    S = A.sum(axis=1, keepdims=True)
    P = A / S
    diff = Y - P
    q = np.sum(Y * (1.0 - Y), axis=1, keepdims=True)
    nll = np.sum(diff ** 2, axis=1) + (q / (S + 1.0))[:, 0]
    abs_err = np.sum(np.abs(diff), axis=1, keepdims=True)
    reg = (abs_err * (2.0 * S + 1.0))[:, 0]
    dnll_dP = -2.0 * diff
    dnll_dA = (dnll_dP - np.sum(dnll_dP * P, axis=1, keepdims=True)) / S \
        - q / (S + 1.0) ** 2
    dreg_dP = -np.sign(diff) * (2.0 * S + 1.0)
    dreg_dA = (dreg_dP - np.sum(dreg_dP * P, axis=1, keepdims=True)) / S \
        + 2.0 * abs_err
    with np.errstate(over="ignore"):
        dA_dZ = 1.0 / (1.0 + np.exp(-Zt))
    dnll, dreg = dnll_dA * dA_dZ, dreg_dA * dA_dZ

    Pa = softmax(Za)
    adv = -np.log(np.maximum(Pa[np.arange(n), s], PROB_FLOOR))
    ut = (dnll + lambda1 * dreg) / n
    ua = (Pa - one_hot(s, spec.num_groups)) / n

    # the backward pass recomputes the forward pass, as the package does
    acts, pres, H, _, _ = forward(params)
    (We, _), (Wa, _) = params.task_head, params.adversary_head
    g_theta_e = np.concatenate([(ut.T @ H).ravel(), ut.sum(axis=0)])
    g_phi = np.concatenate([(ua.T @ H).ravel(), ua.sum(axis=0)])
    G = ut @ We + (-lambda_adv) * (ua @ Wa)
    layers = params.layers
    grads_f = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        Gpre = G * (pres[i] > 0)
        grads_f[i] = np.concatenate([(Gpre.T @ acts[i]).ravel(), Gpre.sum(axis=0)])
        G = Gpre @ layers[i][0]

    g_theta = np.concatenate(grads_f + [g_theta_e])
    new = ParameterSet(spec, np.concatenate([params.theta - eta * g_theta,
                                             params.phi - eta_phi * g_phi]))
    return new, (float(nll.mean()), float(reg.mean()), float(adv.mean()))


def data_config(**kw) -> ExperimentConfig:
    """The config setting ``kw``, checked and with every other key at its
    default."""
    return ExperimentConfig(seeds=(1,), **kw)


def reference_generate_dataset(cfg: ExperimentConfig, seed: int) -> Dataset:
    """``datasets.generate_dataset`` with every row drawn on its own.

    Per group: its labels in one call, then each row's noise followed,
    with label noise, by that row's flip. The group codes are added
    through an index array of the leak columns. The package must give
    the same bits.
    """
    rng = np.random.default_rng([int(seed), 0x5EED])
    dirs, codes = _signal_directions(cfg, rng)
    n = sum(cfg.samples_per_group)
    s = np.repeat(np.arange(cfg.num_groups), cfg.samples_per_group)
    y = np.empty(n, dtype=int)
    flip_shift = np.zeros(n, dtype=int)
    X = np.empty((n, cfg.input_dim))
    start = 0
    for g, n_g in enumerate(cfg.samples_per_group):
        y[start:start + n_g] = rng.integers(0, cfg.num_classes, size=n_g)
        flip = cfg.label_flip_noise[g]
        for i in range(start, start + n_g):
            X[i] = rng.standard_normal(cfg.input_dim)
            if flip > 0 and rng.random() < flip:
                flip_shift[i] = 1 + rng.integers(0, cfg.num_classes - 1)
        start += n_g
    X *= cfg.noise_std
    signal = dirs[y]
    signal *= (2.0 * (1.0 + np.asarray(cfg.group_means)[s, y]))[:, None]
    X += signal
    X[:, np.arange(codes.shape[1])] += codes[s]
    return Dataset(X, (y + flip_shift) % cfg.num_classes, s)


def reference_poison(shard: Dataset, target_group: int, rate: float, seed: int,
                     num_classes: int) -> Dataset:
    """``datasets.poison`` with one scalar draw per clone's wrong label,
    in clone order. The package must give the same bits."""
    pool = np.flatnonzero(shard.s == target_group)
    favored = pool[shard.y[pool] == FAVORABLE_CLASS]
    if not len(favored):
        favored = pool
    rng = np.random.default_rng([int(seed), 0xB1A5])
    n_inject = int(round(rate * len(shard)))
    clones = shard[favored[rng.integers(0, len(favored), size=n_inject)]]
    wrong = np.array([(label + 1 + rng.integers(0, num_classes - 1)) % num_classes
                      for label in clones.y], dtype=int)
    return Dataset(np.concatenate([shard.X, clones.X]),
                   np.concatenate([shard.y, wrong]),
                   np.concatenate([shard.s, clones.s]))


# The fairness references take one (tp, fp, tn, fn) tuple per group that
# has samples, and raise ValueError where the package does.

def reference_di_deviation(counts) -> float:
    """Max over group pairs of |1 - lo/hi| of the predicted-positive
    rates; DI_CAP when no group predicts the favorable class."""
    rates = [(tp + fp) / (tp + fp + tn + fn) for tp, fp, tn, fn in counts]
    if len(rates) < 2:
        raise ValueError("need at least 2 groups")
    if max(rates) == 0.0:
        return DI_CAP
    worst = 0.0
    for ra, rb in itertools.combinations(rates, 2):
        hi, lo = max(ra, rb), min(ra, rb)
        if hi > 0:
            worst = max(worst, abs(1.0 - lo / hi))
    return worst


def reference_delta_eop(counts) -> float:
    """Max TPR gap over the groups with positives."""
    tprs = [tp / (tp + fn) for tp, fp, tn, fn in counts if tp + fn > 0]
    if len(tprs) < 2:
        raise ValueError("need at least 2 groups with positive examples")
    return max(tprs) - min(tprs)


def reference_eod(counts) -> float:
    """Max over pairs of groups with positives and negatives of
    |dTPR| + |dFPR|."""
    rates = [(tp / (tp + fn), fp / (fp + tn))
             for tp, fp, tn, fn in counts if tp + fn > 0 and fp + tn > 0]
    if len(rates) < 2:
        raise ValueError("need at least 2 groups with both positives and negatives")
    worst = 0.0
    for (tpr_a, fpr_a), (tpr_b, fpr_b) in itertools.combinations(rates, 2):
        worst = max(worst, abs(tpr_a - tpr_b) + abs(fpr_a - fpr_b))
    return worst
