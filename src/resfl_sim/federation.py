"""The federated round loop and the three aggregators.

Each round: clients copy the global theta, run local SGD steps on their
shard (keeping a private adversary head between rounds), and report a
parameter delta plus their local uncertainty-fairness value. The server
then aggregates:

  - fedavg:   sample-count-weighted mean of deltas
  - fedavg_dp: per-update clip + Gaussian noise, then fedavg
  - resfl:    theta_G += eta_srv * sum_i 1/(1+ufm_i) * delta_i

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
    num_clients: int = 4
    rounds: int = 100
    local_iterations: int = 5
    batch_size: int = 64
    eta: float = 0.001
    eta_phi: float | None = None
    lambda1: float = 0.1
    lambda_adv: float = 0.01
    aggregator: str = "resfl"
    dp_epsilon: float | None = None
    dp_clip: float | None = None
    server_lr: float | None = None  # defaults to 1/num_clients
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1 or self.rounds < 0 or self.local_iterations < 0:
            raise ValueError("num_clients >= 1, rounds/local_iterations >= 0 required")
        if self.batch_size < 1 or self.eta <= 0:
            raise ValueError("batch_size >= 1 and eta > 0 required")
        if self.eta_phi is not None and self.eta_phi <= 0:
            raise ValueError("eta_phi must be > 0")
        if self.lambda1 < 0 or self.lambda_adv < 0:
            raise ValueError("lambda1 and lambda_adv must be >= 0")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.aggregator == "fedavg_dp":
            if self.dp_epsilon is None or self.dp_clip is None:
                raise ValueError("fedavg_dp requires dp_epsilon and dp_clip")
            if self.dp_epsilon <= 0 or self.dp_clip <= 0:
                raise ValueError("dp_epsilon and dp_clip must be > 0")

    @property
    def effective_server_lr(self) -> float:
        return 1.0 / self.num_clients if self.server_lr is None else self.server_lr

    @property
    def dp_noise_scale(self) -> float:
        """Gaussian-mechanism noise multiplier for (epsilon, delta)."""
        return math.sqrt(2.0 * math.log(1.25 / DP_DELTA)) / self.dp_epsilon


@dataclass
class ClientUpdate:
    client_id: int
    delta_theta_f: np.ndarray
    delta_theta_e: np.ndarray
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
    scale: float = 10.0


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
    np.copyto(params.theta_f, global_params.theta_f)
    np.copyto(params.theta_e, global_params.theta_e)
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

    update = ClientUpdate(
        client_id=-1,
        delta_theta_f=params.theta_f - global_params.theta_f,
        delta_theta_e=params.theta_e - global_params.theta_e,
        ufm=local_ufm,
        sample_count=len(shard),
    )
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
    df = np.zeros_like(updates[0].delta_theta_f)
    de = np.zeros_like(updates[0].delta_theta_e)
    for u, w in zip(updates, weights):
        df += w * u.delta_theta_f
        de += w * u.delta_theta_e
    return df, de


def aggregate_fedavg(updates) -> tuple[np.ndarray, np.ndarray]:
    """Global delta weighted by each client's sample count."""
    if not updates:
        raise ValueError("no updates")
    total = sum(u.sample_count for u in updates)
    return _weighted_delta_sum(updates, [u.sample_count / total for u in updates])


def aggregate_resfl(global_params: ParameterSet, updates, server_lr: float) -> ParameterSet:
    """theta_G + eta_srv * sum_i omega_i * delta_i (unnormalized weights)."""
    if not updates:
        raise ValueError("no updates")
    weights = [server_lr * aggregation_weight(u.ufm) for u in updates]
    df, de = _weighted_delta_sum(updates, weights)
    return ParameterSet(global_params.spec, global_params.theta_f + df,
                        global_params.theta_e + de, global_params.phi)


def apply_dp(update: ClientUpdate, clip: float, noise_scale: float,
             rng: np.random.Generator) -> ClientUpdate:
    """Clip the full theta delta to L2 norm ``clip``, add N(0, (scale*clip)^2 I)."""
    if clip <= 0:
        raise ValueError("clip must be > 0")
    if noise_scale < 0:
        raise ValueError("noise_scale must be >= 0")
    flat = np.concatenate([update.delta_theta_f, update.delta_theta_e])
    norm = float(np.linalg.norm(flat))
    factor = min(1.0, clip / norm) if norm > 0 else 1.0
    flat = flat * factor
    if noise_scale > 0:
        flat = flat + noise_scale * clip * rng.standard_normal(flat.shape)
    nf = len(update.delta_theta_f)
    return replace(update, delta_theta_f=flat[:nf], delta_theta_e=flat[nf:])


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
    dd = _nan_if_undefined(lambda c: di_deviation(c)[0], conf)
    de = _nan_if_undefined(delta_eop, conf)
    eo = _nan_if_undefined(eod, conf)
    us = group_uncertainties(alpha.sum(axis=1), eval_samples.s, params.spec.num_groups)
    return acc, tuple(acc_g), dd, de, eo, float(np.mean(us)), uncertainty_variance(us)


def run_experiment(config: FederationConfig, shards, eval_samples=None,
                   network: NetworkSpec | None = None,
                   byzantine: ByzantineSpec | None = None,
                   ) -> tuple[ParameterSet, list[RoundRecord]]:
    """Run the full federated loop; deterministic given config.seed."""
    if len(shards) != config.num_clients:
        raise ValueError("shards must match num_clients")
    if network is None:
        network = NetworkSpec(input_dim=shards[0].X.shape[1],
                              num_classes=max(int(sh.y.max()) for sh in shards) + 1,
                              num_groups=max(int(sh.s.max()) for sh in shards) + 1)
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
                ref_norm = float(np.mean([np.linalg.norm(np.concatenate(
                    [u.delta_theta_f, u.delta_theta_e])) for u in updates]))
            dim = len(updates[0].delta_theta_f) + len(updates[0].delta_theta_e)
            std = byzantine.scale * max(ref_norm, 1e-12) / math.sqrt(dim)
            for u in updates:
                if u.client_id in byzantine.client_ids and std > 0:
                    arng = np.random.default_rng(
                        [config.seed, t, u.client_id, 0xBAD])
                    noise = std * arng.standard_normal(dim)
                    nf = len(u.delta_theta_f)
                    u.delta_theta_f = noise[:nf]
                    u.delta_theta_e = noise[nf:]
                    # the corrupted local model is what the ufm report
                    # reflects, so uncertainty-aware weighting can react;
                    # it is built in the workspace, free after the clients
                    np.add(global_params.theta_f, u.delta_theta_f, out=local.theta_f)
                    np.add(global_params.theta_e, u.delta_theta_e, out=local.theta_e)
                    np.copyto(local.phi, phis[u.client_id])
                    u.ufm = shard_ufm(local, shards[u.client_id])

        if not updates:
            # nothing can move the global model anymore: record it frozen
            # and stop, so a destroyed model reads as low accuracy, not a crash
            log.warning("round %d: all clients failed; freezing global model", t)
        elif config.aggregator == "resfl":
            global_params = aggregate_resfl(global_params, updates,
                                            config.effective_server_lr)
        else:
            if config.aggregator == "fedavg_dp":
                updates = [
                    apply_dp(u, config.dp_clip, config.dp_noise_scale,
                             np.random.default_rng([config.seed, t, u.client_id, 0xDF]))
                    for u in updates
                ]
            df, de_ = aggregate_fedavg(updates)
            global_params = ParameterSet(
                network, global_params.theta_f + df, global_params.theta_e + de_,
                global_params.phi)

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
