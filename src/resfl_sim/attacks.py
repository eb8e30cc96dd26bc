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
from .datasets import poison
from .evidential import model_evidence
from .federation import ByzantineSpec, FederationConfig, RoundRecord, run_experiment
from .network import NetworkSpec, ParameterSet

ATTACK_KINDS = ("mia", "aia", "byzantine", "poisoning")

LAMBDA1 = 0.1  # evidential regulariser weight of the MIA models and AIA probes


@dataclass(frozen=True)
class AttackReport:
    attack_kind: str
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


def mia_threshold(config: FederationConfig, network: NetworkSpec, member_count: int,
                  shadow_pool) -> float:
    """Confidence threshold of shadow-model membership inference.

    A shadow model is trained on a slice of the shadow pool matching the
    target's training-set size (capped at half the pool), so its
    member/non-member confidence gap mimics the target's. It is the
    1-client ``run_experiment`` cell of ``config``, trained as the
    targets are. The threshold sees only the shadow model, so it serves
    every such target.
    """
    if member_count < 1 or len(shadow_pool) < 4:
        raise ValueError("member_count must be >= 1 and the shadow pool >= 4 samples")
    shadow_size = min(member_count, len(shadow_pool) // 2)
    order = np.random.default_rng([config.seed, 0x314]).permutation(len(shadow_pool))
    shadow_members = shadow_pool[order[:shadow_size]]
    shadow_nonmembers = shadow_pool[order[shadow_size:]]
    shadow_model, _ = run_experiment(config, [shadow_members], None, network=network)
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
        return AttackReport("mia", float("nan"), {"threshold": threshold})
    tp = int(np.sum(m_conf >= threshold))
    fn = len(m_conf) - tp
    tn = int(np.sum(n_conf < threshold))
    fp = len(n_conf) - tn
    return AttackReport("mia", (tp + tn) / (tp + tn + fp + fn), {
        "threshold": threshold, "tp": tp, "tn": tn, "fp": fp, "fn": fn})


def aia_run(global_params: ParameterSet, dataset, num_groups: int, seed: int,
            trials: int) -> AttackReport:
    """Gradient-matching attribute inference.

    Builds a one-step update signature per group from group-pure probe
    batches, then classifies fresh group-pure updates by nearest
    signature in L2. Score is the fraction of correct inferences, NaN
    when a probe step's losses or delta are not finite (a degenerate model).
    """
    by_group = {g: dataset[dataset.s == g] for g in range(num_groups)}
    if any(not v for v in by_group.values()):
        raise ValueError("every group needs probe samples")
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
            signatures = {g: one_step_delta(pure_batch(g)) for g in range(num_groups)}
            for _ in range(trials):
                true_g = int(rng.integers(0, num_groups))
                observed = one_step_delta(pure_batch(true_g))
                guess = min(signatures,
                            key=lambda g: float(np.linalg.norm(observed - signatures[g])))
                correct += guess == true_g
        except FloatingPointError:
            return AttackReport("aia", float("nan"), {"trials": trials})
    return AttackReport("aia", correct / trials, {"trials": trials})


def byzantine_run(config: FederationConfig, shards, eval_samples,
                  clean: tuple[ParameterSet, list[RoundRecord]],
                  malicious_fraction: float,
                  perturb_scale: float) -> AttackReport:
    """Paired clean/attacked runs; score is the accuracy degradation.

    ``clean`` is ``run_experiment(config, shards, eval_samples)``; the
    attacked run trains its network. The attacker compromises the most
    influential clients: the ``ceil(fraction * K)`` largest shards; the
    fraction is in [0, 1), checked at config load.
    """
    n_bad = int(np.ceil(malicious_fraction * config.num_clients))
    by_size = sorted(range(len(shards)), key=lambda k: len(shards[k]), reverse=True)
    attacked = clean
    if n_bad and perturb_scale > 0:
        byz = ByzantineSpec(client_ids=tuple(sorted(by_size[:n_bad])),
                            scale=perturb_scale)
        attacked = run_experiment(config, shards, eval_samples,
                                  network=clean[0].spec, byzantine=byz)
    a_clean = clean[1][-1].accuracy
    a_byz = attacked[1][-1].accuracy
    return AttackReport("byzantine", a_clean - a_byz, {
        "clean_accuracy": a_clean, "attacked_accuracy": a_byz,
        "num_malicious": float(n_bad)})


def poisoning_run(config: FederationConfig, shards, eval_samples,
                  clean: tuple[ParameterSet, list[RoundRecord]],
                  target_group: int, rate: float) -> AttackReport:
    """Paired clean/poisoned runs; score is the shift in the equalized-odds
    gap of each run's last round.

    ``clean`` is ``run_experiment(config, shards, eval_samples)``; the
    poisoned run trains its network. The compromised client is the shard
    holding the most target-group samples; its shard is poisoned per
    :func:`resfl_sim.datasets.poison`.
    At ``rate = 0`` the clean model stands for the poisoned one.
    """
    eod_clean = eod_poisoned = clean[1][-1].eod
    if rate > 0.0:
        victim = int(np.argmax([np.count_nonzero(sh.s == target_group)
                                for sh in shards]))
        poisoned_shards = list(shards)
        poisoned_shards[victim] = poison(shards[victim], target_group, rate,
                                         seed=config.seed,
                                         num_classes=clean[0].spec.num_classes)
        _, records = run_experiment(config, poisoned_shards, eval_samples,
                                    network=clean[0].spec)
        eod_poisoned = records[-1].eod
    return AttackReport("poisoning", eod_poisoned - eod_clean, {
        "eod_clean": eod_clean, "eod_poisoned": eod_poisoned, "rate": rate})
