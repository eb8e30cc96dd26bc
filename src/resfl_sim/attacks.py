"""Attack harnesses: membership inference, attribute inference,
Byzantine perturbation, and fairness-targeted data poisoning.

The harnesses train nothing: they build the inputs of the cells the
caller trains (MIA pools and model config, Byzantine clients, poisoned
shards) and score the trained runs, each returning a report with the
attack's headline score.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adversarial import local_train_step
from .config import ExperimentConfig
from .datasets import poison
from .evidential import model_evidence
from .federation import ByzantineSpec, RoundRecord
from .network import ParameterSet

LAMBDA1 = 0.1  # evidential regulariser weight of the MIA models and AIA probes


def mia_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """The 1-client, 1-round config that trains every MIA model: the shadow
    model and the ``overfit`` target with ``fedavg``, the DP target with
    ``fedavg_dp``. The two targets share init and batches, so they differ
    only in the DP clip and noise."""
    return replace(cfg, num_clients=1, rounds=1, local_iterations=cfg.mia_overfit_steps,
                   batch_size=32, eta=0.1, eta_phi=0.1, lambda1=LAMBDA1, lambda_adv=0.0,
                   server_lr=1.0)


def mia_pools(cfg: ExperimentConfig, train, test, seed: int):
    """(members, non-members, shadow members, shadow non-members) of the
    MIA on ``seed``: the targets' training set, a seeded draw of as many
    test samples, and a split of the shadow pool whose member count
    matches the targets' (capped at half the pool), so the shadow's
    confidence gap mimics theirs. One shadow serves every target of the seed."""
    order = np.random.default_rng([seed, 0x517A]).permutation(len(train))
    members = train[order[:cfg.mia_overfit_size]]
    pool = train[order[cfg.mia_overfit_size:cfg.mia_overfit_size + 400]]
    draw = np.random.default_rng([seed, 0x4E4D]).permutation(len(test))
    shadow_size = min(len(members), len(pool) // 2)
    shadow_order = np.random.default_rng([seed, 0x314]).permutation(len(pool))
    return (members, test[draw[:len(members)]], pool[shadow_order[:shadow_size]],
            pool[shadow_order[shadow_size:]])


@dataclass(frozen=True)
class AttackReport:
    score: float
    auxiliary: dict[str, float]


def _confidences(params: ParameterSet, samples) -> np.ndarray:
    """Max Dirichlet-mean probability per sample; NaN if its evidence is not finite."""
    A = model_evidence(params, samples.X)
    with np.errstate(invalid="ignore"):
        return (A / A.sum(axis=1, keepdims=True)).max(axis=1)


def _best_threshold(member_conf: np.ndarray, nonmember_conf: np.ndarray) -> float:
    """Threshold maximizing balanced accuracy of rule conf >= tau."""
    # the sorted distinct confidences; np.unique would import numpy.ma
    conf = np.sort(np.concatenate([member_conf, nonmember_conf]))
    candidates = conf[np.concatenate(([True], conf[1:] != conf[:-1]))]
    mids = (candidates[:-1] + candidates[1:]) / 2.0
    candidates = np.concatenate([[candidates[0] - 1e-9], mids, [candidates[-1] + 1e-9]])
    tpr = (member_conf >= candidates[:, None]).mean(axis=1)
    tnr = (nonmember_conf < candidates[:, None]).mean(axis=1)
    # argmax keeps the first of tied maxima
    return float(candidates[np.argmax(0.5 * (tpr + tnr))])


def mia_threshold(shadow_model: ParameterSet, shadow_members,
                  shadow_nonmembers) -> float:
    """Confidence threshold of shadow-model membership inference: the one
    that best separates the shadow model's members from its non-members
    (the last two pools of :func:`mia_pools`)."""
    return _best_threshold(_confidences(shadow_model, shadow_members),
                           _confidences(shadow_model, shadow_nonmembers))


def mia_run(target_params: ParameterSet, member_pool, nonmember_pool,
            threshold: float) -> AttackReport:
    """Membership inference by the rule confidence >= ``threshold`` (from
    :func:`mia_threshold`) on the target's confidences on the true pools;
    the score is the rule's accuracy, NaN if a confidence is not finite."""
    if not member_pool or not nonmember_pool:
        raise ValueError("pools must be non-empty")
    m_conf = _confidences(target_params, member_pool)
    n_conf = _confidences(target_params, nonmember_pool)
    if not (np.isfinite(m_conf).all() and np.isfinite(n_conf).all()):
        return AttackReport(float("nan"), {"threshold": threshold})
    tp = int(np.sum(m_conf >= threshold))
    fn = len(m_conf) - tp
    tn = int(np.sum(n_conf < threshold))
    fp = len(n_conf) - tn
    return AttackReport((tp + tn) / (tp + tn + fp + fn), {
        "threshold": threshold, "tp": tp, "tn": tn, "fp": fp, "fn": fn})


def aia_run(config: ExperimentConfig, global_params: ParameterSet, dataset,
            seed: int) -> AttackReport:
    """Gradient-matching attribute inference over ``config.aia_trials``.

    Builds a one-step update signature per group with samples in
    ``dataset`` from group-pure probe batches, then classifies fresh
    group-pure updates of those groups by nearest signature in L2, so
    chance is 1 / (groups with samples). Score is the fraction of correct
    inferences, NaN when a probe step's losses or delta are not finite
    (a degenerate model).
    """
    trials = config.aia_trials
    present = np.flatnonzero(np.bincount(dataset.s)).tolist()
    by_group = {g: dataset[dataset.s == g] for g in present}
    rng = np.random.default_rng([int(seed), 0xA1A])
    # one scratch copy and gradient set, reloaded for every signature
    new, grads = global_params.copy(), ParameterSet.zeros(global_params.spec)

    def one_step_delta(batch):
        np.copyto(new.flat, global_params.flat)
        losses = local_train_step(new, grads, batch.X, batch.y, batch.s,
                                  0.05, 0.05, LAMBDA1, 0.0)
        delta = new.theta - global_params.theta
        if not (np.isfinite(losses).all() and np.isfinite(delta).all()):
            raise FloatingPointError("non-finite probe step")
        return delta

    def pure_batch(g):
        pool = by_group[g]
        return pool[rng.integers(0, len(pool), size=min(32, len(pool)))]

    correct = 0
    # as in client_round, the probe's finiteness check reports an overflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            signatures = {g: one_step_delta(pure_batch(g)) for g in present}
            for _ in range(trials):
                true_g = present[rng.integers(0, len(present))]
                observed = one_step_delta(pure_batch(true_g))
                guess = min(signatures,
                            key=lambda g: float(np.linalg.norm(observed - signatures[g])))
                correct += guess == true_g
        except FloatingPointError:
            return AttackReport(float("nan"), {"trials": trials})
    return AttackReport(correct / trials, {"trials": trials})


def byzantine_clients(config: ExperimentConfig, shards) -> ByzantineSpec:
    """The most influential clients: the ``ceil(byzantine_fraction * K)``
    largest shards, ties going to the lower index (the sort is stable)."""
    n_bad = int(np.ceil(config.byzantine_fraction * config.num_clients))
    by_size = sorted(range(len(shards)), key=lambda k: len(shards[k]), reverse=True)
    return ByzantineSpec(client_ids=tuple(sorted(by_size[:n_bad])),
                         scale=config.byzantine_scale)


def poisoned_shards(config: ExperimentConfig, shards, seed: int) -> list:
    """``shards`` with the one holding the most ``poison_group`` samples
    poisoned at ``poison_rate`` per :func:`resfl_sim.datasets.poison`."""
    target = config.poison_group
    victim = int(np.argmax([np.count_nonzero(sh.s == target) for sh in shards]))
    poisoned = list(shards)
    poisoned[victim] = poison(shards[victim], target, config.poison_rate, seed=seed,
                              num_classes=config.num_classes)
    return poisoned


def byzantine_run(clean: list[RoundRecord], attacked: list[RoundRecord],
                  byzantine: ByzantineSpec) -> AttackReport:
    """Last-round accuracy lost by the run under ``byzantine``."""
    a_clean, a_byz = clean[-1].accuracy, attacked[-1].accuracy
    return AttackReport(a_clean - a_byz, {
        "clean_accuracy": a_clean, "attacked_accuracy": a_byz,
        "num_malicious": float(len(byzantine.client_ids))})


def poisoning_run(clean: list[RoundRecord], poisoned: list[RoundRecord],
                  rate: float) -> AttackReport:
    """Shift in the last round's equalized-odds gap of the run on
    :func:`poisoned_shards` at ``rate``."""
    eod_clean, eod_poisoned = clean[-1].eod, poisoned[-1].eod
    return AttackReport(eod_poisoned - eod_clean, {
        "eod_clean": eod_clean, "eod_poisoned": eod_poisoned, "rate": rate})
