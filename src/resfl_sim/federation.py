"""The federated round loop and the three aggregators.

Each round: clients copy the global theta, run local SGD steps on their
shard (keeping a private adversary head between rounds), and report
one theta delta (theta_f then theta_e) plus their local
uncertainty-fairness value. Each aggregator returns the global delta,
which the round loop adds to theta_G in place:

  - fedavg:   sample-count-weighted mean of deltas
  - fedavg_dp: per-update clip + Gaussian noise, then fedavg
  - resfl:    eta_srv * sum_i 1/(1+ufm_i) * delta_i

The resfl sum is unnormalized by design; eta_srv defaults to 1/K so
that all-zero ufm reproduces FedAvg over equal shards exactly.

A Byzantine client's delta is replaced by noise scaled to the
first-round mean honest-update norm before aggregation. A round in
which every client drops leaves the model frozen, is recorded like any
other, and ends the run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .adversarial import local_train_step
from .evidential import evidence_batch
from .fairness import aggregation_weight, group_uncertainties, \
    ufm as ufm_metric, uncertainty_variance
from .metrics import accuracy_by_group, confusion_by_group, delta_eop, di_deviation, eod
from .network import NetworkSpec, ParameterSet, forward_batch, init_params

log = logging.getLogger(__name__)

AGGREGATORS = ("fedavg", "fedavg_dp", "resfl")
DP_DELTA = 1e-5  # the delta of fedavg_dp's (epsilon, delta) guarantee


@dataclass(frozen=True)
class FederationConfig:
    """One training cell's settings, all required: their defaults and
    checks live in ``config.ExperimentConfig``, whose ``federation_config``
    builds this."""
    num_clients: int
    rounds: int
    local_iterations: int
    batch_size: int
    eta: float
    eta_phi: float
    lambda1: float
    lambda_adv: float
    aggregator: str
    dp_epsilon: float
    dp_clip: float
    server_lr: float
    seed: int

    @property
    def dp_noise_scale(self) -> float:
        """Gaussian-mechanism noise multiplier for (epsilon, delta)."""
        return math.sqrt(2.0 * math.log(1.25 / DP_DELTA)) / self.dp_epsilon


@dataclass
class ClientUpdate:
    client_id: int
    delta: np.ndarray  # theta_f then theta_e, as ParameterSet.theta
    ufm: float
    sample_count: int


@dataclass(frozen=True)
class ByzantineSpec:
    """Malicious clients replace their reported deltas with Gaussian noise.

    The noise vector's expected norm is ``scale`` times the first-round
    mean honest-update norm (the per-coordinate std spreads that
    magnitude over the parameter dimension).
    """
    client_ids: tuple[int, ...]
    scale: float


@dataclass(frozen=True)
class RoundRecord:
    round: int
    accuracy: float
    acc_by_group: tuple[float, ...]
    di_dev: float
    delta_eop: float
    eod: float
    ufm_by_client: dict[int, float]
    omega_by_client: dict[int, float]
    mean_uncertainty: float
    uncertainty_var: float
    loss_task: float
    loss_uncertainty: float
    loss_adversary: float
    dropped_clients: tuple[int, ...] = ()


def client_rng(seed: int, client_id: int, round_idx: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(round_idx), int(client_id)])


def client_round(global_params: ParameterSet, phi: np.ndarray, shard,
                 config: FederationConfig, rng: np.random.Generator,
                 params: ParameterSet, grads: ParameterSet):
    """Local training for one client.

    ``params`` and ``grads`` are the run's local-training workspace: the
    global theta and ``phi`` are loaded into ``params``, which is stepped
    in place, and ``grads`` receives each step's gradients. Clients train
    one at a time, so one workspace serves every client round of a run;
    its contents on entry are never read. Returns (ClientUpdate, new_phi,
    mean CompositeLossTerms tuple). phi persists client-side; only theta
    deltas travel to the server.
    """
    if not shard:
        raise ValueError("empty shard")
    np.copyto(params.theta, global_params.theta)
    np.copyto(params.phi, phi)
    task = unc = adv = 0.0
    # a diverging client overflows on its way to the FloatingPointError
    # that drops it; the explicit finiteness check reports it, not NumPy
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(config.local_iterations):
            idx = rng.choice(len(shard), size=min(config.batch_size, len(shard)),
                             replace=False)
            batch = shard[idx]
            terms = local_train_step(
                params, grads, batch.X, batch.y, batch.s,
                config.eta, config.eta_phi, config.lambda1, config.lambda_adv)
            task += terms.task
            unc += terms.uncertainty
            adv += terms.adversary
    n_iter = max(config.local_iterations, 1)
    local_ufm = shard_ufm(params, shard)

    update = ClientUpdate(client_id=-1, delta=params.theta - global_params.theta,
                          ufm=local_ufm, sample_count=len(shard))
    # a copy: the workspace is overwritten by the next client
    return update, params.phi.copy(), (task / n_iter, unc / n_iter, adv / n_iter)


def shard_ufm(params: ParameterSet, shard) -> float:
    """Uncertainty-fairness value of ``params`` evaluated on a shard.

    Non-finite evaluations (a degenerate model) report the UFM upper
    bound, i.e. maximal group disparity.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, _, Zt, _ = forward_batch(params, shard.X)
        alpha0 = np.add.reduce(evidence_batch(Zt), axis=1)  # .sum's own call
        if not np.all(np.isfinite(alpha0)):
            alpha0 = np.where(np.isfinite(alpha0), alpha0, np.finfo(float).max)
        value = ufm_metric(group_uncertainties(alpha0, shard.s, params.spec.num_groups))
    return value if math.isfinite(value) else float(params.spec.num_groups)


def _weighted_delta_sum(updates, weights):
    """sum_k weights[k] * delta_k, accumulated in client order.

    Shared by all aggregators so equal-weight paths are bit-identical.
    """
    total = np.zeros_like(updates[0].delta)
    for u, w in zip(updates, weights):
        total += w * u.delta
    return total


def aggregate_fedavg(updates) -> np.ndarray:
    """Global delta weighted by each client's sample count."""
    if not updates:
        raise ValueError("no updates")
    total = sum(u.sample_count for u in updates)
    return _weighted_delta_sum(updates, [u.sample_count / total for u in updates])


def aggregate_resfl(updates, server_lr: float) -> np.ndarray:
    """Global delta eta_srv * sum_i omega_i * delta_i (unnormalized weights)."""
    if not updates:
        raise ValueError("no updates")
    return _weighted_delta_sum(
        updates, [server_lr * aggregation_weight(u.ufm) for u in updates])


def apply_dp(update: ClientUpdate, clip: float, noise_scale: float,
             rng: np.random.Generator) -> ClientUpdate:
    """Clip the full theta delta to L2 norm ``clip`` (> 0), add
    N(0, (scale*clip)^2 I) for a ``noise_scale`` >= 0."""
    norm = float(np.linalg.norm(update.delta))
    factor = min(1.0, clip / norm) if norm > 0 else 1.0
    delta = update.delta * factor
    if noise_scale > 0:
        delta = delta + noise_scale * clip * rng.standard_normal(delta.shape)
    return replace(update, delta=delta)


def _nan_if_undefined(metric, conf) -> float:
    try:
        return metric(conf)
    except ValueError:
        return float("nan")


def _evaluate(params: ParameterSet, eval_samples):
    """Accuracy, per-group accuracies, DI deviation, delta EOP, EOD, and the
    mean and variance of group uncertainty; all NaN without eval samples."""
    if eval_samples is None:
        nan = float("nan")
        return nan, (), nan, nan, nan, nan, nan
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, _, Zt, _ = forward_batch(params, eval_samples.X)
        alpha = evidence_batch(Zt)
    preds = np.argmax(alpha, axis=1)
    acc, acc_g = accuracy_by_group(preds, eval_samples.y, eval_samples.s,
                                   params.spec.num_groups)
    conf = confusion_by_group(preds, eval_samples.y, eval_samples.s)
    dd = _nan_if_undefined(di_deviation, conf)
    de = _nan_if_undefined(delta_eop, conf)
    eo = _nan_if_undefined(eod, conf)
    us = group_uncertainties(alpha.sum(axis=1), eval_samples.s, params.spec.num_groups)
    return acc, tuple(acc_g), dd, de, eo, float(np.mean(us)), uncertainty_variance(us)


def run_experiment(config: FederationConfig, shards, eval_samples,
                   network: NetworkSpec, byzantine: ByzantineSpec | None = None,
                   ) -> tuple[ParameterSet, list[RoundRecord]]:
    """Run the full federated loop; deterministic given config.seed.
    ``eval_samples`` may be None, which leaves the metrics NaN."""
    if len(shards) != config.num_clients:
        raise ValueError("shards must match num_clients")
    global_params = init_params(network, np.random.default_rng([config.seed, 0x1217]))
    phis = [global_params.phi.copy() for _ in range(config.num_clients)]
    # the local-training workspace, shared by every client round of the run
    local, grads = ParameterSet.zeros(network), ParameterSet.zeros(network)

    ref_norm = 0.0
    records: list[RoundRecord] = []
    for t in range(config.rounds):
        updates: list[ClientUpdate] = []
        dropped: list[int] = []
        losses = []
        for cid in range(config.num_clients):
            rng = client_rng(config.seed, cid, t)
            try:
                # phis[cid] is replaced only if the client returns
                update, phis[cid], loss = client_round(
                    global_params, phis[cid], shards[cid], config, rng,
                    local, grads)
            except FloatingPointError as exc:
                log.warning("round %d: dropping client %d (%s)", t, cid, exc)
                dropped.append(cid)
                continue
            update.client_id = cid
            updates.append(update)
            losses.append(loss)

        if updates and byzantine is not None and byzantine.client_ids:
            if t == 0:
                # honest first-round norm, frozen as the reference
                # magnitude of the Byzantine noise
                ref_norm = float(np.mean([np.linalg.norm(u.delta) for u in updates]))
            dim = updates[0].delta.size
            std = byzantine.scale * max(ref_norm, 1e-12) / math.sqrt(dim)
            for u in updates:
                if u.client_id in byzantine.client_ids and std > 0:
                    arng = np.random.default_rng(
                        [config.seed, t, u.client_id, 0xBAD])
                    u.delta = std * arng.standard_normal(dim)
                    # the corrupted local model is what the ufm report
                    # reflects, so uncertainty-aware weighting can react;
                    # it is built in the workspace, free after the clients
                    np.add(global_params.theta, u.delta, out=local.theta)
                    np.copyto(local.phi, phis[u.client_id])
                    u.ufm = shard_ufm(local, shards[u.client_id])

        if config.aggregator == "fedavg_dp":
            updates = [
                apply_dp(u, config.dp_clip, config.dp_noise_scale,
                         np.random.default_rng([config.seed, t, u.client_id, 0xDF]))
                for u in updates
            ]
        if not updates:
            # nothing can move the global model anymore: record it frozen
            # and stop, so a destroyed model reads as low accuracy, not a crash
            log.warning("round %d: all clients failed; freezing global model", t)
        else:
            delta = aggregate_resfl(updates, config.server_lr) \
                if config.aggregator == "resfl" else aggregate_fedavg(updates)
            # the set is frozen, so the attribute takes no +=
            np.add(global_params.theta, delta, out=global_params.theta)

        ufms = {u.client_id: u.ufm for u in updates}
        acc, acc_g, dd, dep, eo, mean_u, var_u = _evaluate(global_params, eval_samples)
        mean_losses = [float(np.mean(col)) for col in zip(*losses)] or [float("nan")] * 3
        records.append(RoundRecord(
            round=t,
            accuracy=acc,
            acc_by_group=acc_g,
            di_dev=dd,
            delta_eop=dep,
            eod=eo,
            ufm_by_client=ufms,
            omega_by_client={c: aggregation_weight(v) for c, v in ufms.items()},
            mean_uncertainty=mean_u,
            uncertainty_var=var_u,
            loss_task=mean_losses[0],
            loss_uncertainty=mean_losses[1],
            loss_adversary=mean_losses[2],
            dropped_clients=tuple(dropped),
        ))
        if not updates:
            break
    return global_params, records
