"""Attack harnesses: membership inference, attribute inference,
Byzantine perturbation, and fairness-targeted data poisoning.

Each harness is a measurement that returns a report with the attack's
headline score. The paired harnesses (Byzantine, poisoning) take the
clean run from the caller, so one clean run serves both; membership
inference fits its shadow-model threshold once (``mia_threshold``) and
scores any number of targets with it (``mia_run``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversarial import local_train_step
from .config import ExperimentConfig
from .datasets import poison
from .evidential import model_evidence
from .federation import ByzantineSpec, RoundRecord, run_experiment
from .network import ParameterSet

LAMBDA1 = 0.1  # evidential regulariser weight of the MIA models and AIA probes


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


def mia_threshold(config: ExperimentConfig, seed: int, member_count: int,
                  shadow_pool) -> float:
    """Confidence threshold of shadow-model membership inference.

    A shadow model is trained on a slice of the shadow pool matching the
    target's training-set size (capped at half the pool), so its
    member/non-member confidence gap mimics the target's. It is the
    1-client ``fedavg`` cell ``(config, seed)``, trained as the targets
    are. The threshold sees only the shadow model, so it serves every
    such target.
    """
    if member_count < 1 or len(shadow_pool) < 4:
        raise ValueError("member_count must be >= 1 and the shadow pool >= 4 samples")
    shadow_size = min(member_count, len(shadow_pool) // 2)
    order = np.random.default_rng([seed, 0x314]).permutation(len(shadow_pool))
    shadow_members = shadow_pool[order[:shadow_size]]
    shadow_nonmembers = shadow_pool[order[shadow_size:]]
    shadow_model, _ = run_experiment(config, "fedavg", seed, [shadow_members], None)
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


def byzantine_run(config: ExperimentConfig, algorithm: str, seed: int, shards,
                  eval_samples, clean: tuple[ParameterSet, list[RoundRecord]],
                  ) -> AttackReport:
    """Paired clean/attacked runs; score is the accuracy degradation.

    ``clean`` is ``run_experiment(config, algorithm, seed, shards,
    eval_samples)``. The attacker compromises the most influential
    clients: the ``ceil(byzantine_fraction * K)`` largest shards, whose
    noise has ``byzantine_scale`` times the honest update norm.
    """
    n_bad = int(np.ceil(config.byzantine_fraction * config.num_clients))
    by_size = sorted(range(len(shards)), key=lambda k: len(shards[k]), reverse=True)
    attacked = clean
    if n_bad and config.byzantine_scale > 0:
        byz = ByzantineSpec(client_ids=tuple(sorted(by_size[:n_bad])),
                            scale=config.byzantine_scale)
        attacked = run_experiment(config, algorithm, seed, shards, eval_samples,
                                  byzantine=byz)
    a_clean = clean[1][-1].accuracy
    a_byz = attacked[1][-1].accuracy
    return AttackReport(a_clean - a_byz, {
        "clean_accuracy": a_clean, "attacked_accuracy": a_byz,
        "num_malicious": float(n_bad)})


def poisoning_run(config: ExperimentConfig, algorithm: str, seed: int, shards,
                  eval_samples, clean: tuple[ParameterSet, list[RoundRecord]],
                  ) -> AttackReport:
    """Paired clean/poisoned runs; score is the shift in the equalized-odds
    gap of each run's last round.

    ``clean`` is ``run_experiment(config, algorithm, seed, shards,
    eval_samples)``. The compromised client is the shard holding the most
    ``poison_group`` samples; its shard is poisoned at ``poison_rate`` per
    :func:`resfl_sim.datasets.poison`.
    At ``poison_rate = 0`` the clean model stands for the poisoned one.
    """
    target, rate = config.poison_group, config.poison_rate
    eod_clean = eod_poisoned = clean[1][-1].eod
    if rate > 0.0:
        victim = int(np.argmax([np.count_nonzero(sh.s == target) for sh in shards]))
        poisoned_shards = list(shards)
        poisoned_shards[victim] = poison(shards[victim], target, rate, seed=seed,
                                         num_classes=config.num_classes)
        _, records = run_experiment(config, algorithm, seed, poisoned_shards,
                                    eval_samples)
        eod_poisoned = records[-1].eod
    return AttackReport(eod_poisoned - eod_clean, {
        "eod_clean": eod_clean, "eod_poisoned": eod_poisoned, "rate": rate})
