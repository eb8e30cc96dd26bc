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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .adversarial import local_train_step
from .evidential import evidence_batch
from .fairness import DEFAULT_EPS, aggregation_weight, group_uncertainties, \
    ufm as ufm_metric, uncertainty_variance
from .metrics import accuracy_by_group, confusion_by_group, delta_eop, di_deviation, eod
from .network import NetworkSpec, ParameterSet, forward_batch, init_params

log = logging.getLogger(__name__)

AGGREGATORS = ("fedavg", "fedavg_dp", "resfl")


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
    dp_delta: float = 1e-5
    server_lr: float | None = None  # defaults to 1/num_clients
    ufm_eps: float = DEFAULT_EPS
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1 or self.rounds < 0 or self.local_iterations < 0:
            raise ValueError("num_clients >= 1, rounds/local_iterations >= 0 required")
        if self.batch_size < 1 or self.eta <= 0:
            raise ValueError("batch_size >= 1 and eta > 0 required")
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
        return math.sqrt(2.0 * math.log(1.25 / self.dp_delta)) / self.dp_epsilon


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

    ``scale`` is the per-coordinate std; when ``relative`` the noise
    vector's expected norm is instead ``scale`` times the first-round
    mean honest-update norm (per-coordinate std spreads that magnitude
    over the parameter dimension).
    """
    client_ids: tuple[int, ...]
    scale: float = 10.0
    relative: bool = True


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
                 config: FederationConfig, rng: np.random.Generator):
    """Local training for one client.

    Returns (ClientUpdate, new_phi, mean CompositeLossTerms tuple). phi
    persists client-side; only theta deltas travel to the server.
    """
    if not shard:
        raise ValueError("empty shard")
    params = ParameterSet(global_params.spec, global_params.theta_f.copy(),
                          global_params.theta_e.copy(), phi.copy())
    task = unc = adv = 0.0
    for _ in range(config.local_iterations):
        idx = rng.choice(len(shard), size=min(config.batch_size, len(shard)),
                         replace=False)
        batch = shard[idx]
        params, terms = local_train_step(
            params, batch.X, batch.y, batch.s,
            config.eta, config.eta_phi, config.lambda1, config.lambda_adv)
        task += terms.task
        unc += terms.uncertainty
        adv += terms.adversary
    n_iter = max(config.local_iterations, 1)
    local_ufm = shard_ufm(params, shard, config.ufm_eps)

    update = ClientUpdate(
        client_id=-1,
        delta_theta_f=params.theta_f - global_params.theta_f,
        delta_theta_e=params.theta_e - global_params.theta_e,
        ufm=local_ufm,
        sample_count=len(shard),
    )
    return update, params.phi, (task / n_iter, unc / n_iter, adv / n_iter)


def shard_ufm(params: ParameterSet, shard, eps: float = DEFAULT_EPS) -> float:
    """Uncertainty-fairness value of ``params`` evaluated on a shard.

    Non-finite evaluations (a degenerate model) report the UFM upper
    bound, i.e. maximal group disparity.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, _, Zt, _ = forward_batch(params, shard.X)
        alpha0 = evidence_batch(Zt).sum(axis=1)
    if not np.all(np.isfinite(alpha0)):
        alpha0 = np.where(np.isfinite(alpha0), alpha0, np.finfo(float).max)
    with np.errstate(over="ignore", invalid="ignore"):
        gus = group_uncertainties(alpha0, shard.s, params.spec.num_groups)
        value = ufm_metric([gu.uncertainty for gu in gus], eps)
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
                        global_params.theta_e + de, global_params.phi.copy())


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


def _evaluate(params: ParameterSet, eval_samples):
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, _, Zt, _ = forward_batch(params, eval_samples.X)
        alpha = evidence_batch(Zt)
    preds = np.argmax(alpha, axis=1)
    acc, acc_g = accuracy_by_group(preds, eval_samples.y, eval_samples.s,
                                   params.spec.num_groups)
    conf = confusion_by_group(preds, eval_samples.y, eval_samples.s)
    try:
        dd, _ = di_deviation(conf)
    except ValueError:
        dd = float("nan")
    try:
        de = delta_eop(conf)
    except ValueError:
        de = float("nan")
    try:
        eo = eod(conf)
    except ValueError:
        eo = float("nan")
    gus = group_uncertainties(alpha.sum(axis=1), eval_samples.s, params.spec.num_groups)
    us = [gu.uncertainty for gu in gus]
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

    mean_update_norm = 0.0
    records: list[RoundRecord] = []
    for t in range(config.rounds):
        updates: list[ClientUpdate] = []
        dropped: list[int] = []
        losses = []
        for cid in range(config.num_clients):
            rng = client_rng(config.seed, cid, t)
            try:
                update, phis[cid], loss = client_round(
                    global_params, phis[cid], shards[cid], config, rng)
            except FloatingPointError as exc:
                log.warning("round %d: dropping client %d (%s)", t, cid, exc)
                dropped.append(cid)
                continue
            update.client_id = cid
            updates.append(update)
            losses.append(loss)
        if not updates:
            # nothing can move the global model anymore; freeze it and
            # stop so a destroyed model reads as low accuracy, not a crash
            log.warning("round %d: all clients failed; freezing global model", t)
            if eval_samples is not None:
                acc, acc_g, dd, dep, eo, mean_u, var_u = _evaluate(
                    global_params, eval_samples)
            else:
                acc, acc_g, dd, dep, eo = float("nan"), (), float("nan"), \
                    float("nan"), float("nan")
                mean_u = var_u = float("nan")
            records.append(RoundRecord(
                round=t, accuracy=acc, acc_by_group=acc_g, di_dev=dd,
                delta_eop=dep, eod=eo, ufm_by_client={}, omega_by_client={},
                mean_uncertainty=mean_u, uncertainty_var=var_u,
                loss_task=float("nan"), loss_uncertainty=float("nan"),
                loss_adversary=float("nan"), dropped_clients=tuple(dropped)))
            break

        if t == 0:
            # honest first-round norm, frozen as the reference magnitude
            # for relative Byzantine perturbations
            mean_update_norm = float(np.mean([np.linalg.norm(np.concatenate(
                [u.delta_theta_f, u.delta_theta_e])) for u in updates]))

        if byzantine is not None and byzantine.client_ids:
            dim = len(updates[0].delta_theta_f) + len(updates[0].delta_theta_e)
            if byzantine.relative:
                std = byzantine.scale * max(mean_update_norm, 1e-12) / math.sqrt(dim)
            else:
                std = byzantine.scale
            for u in updates:
                if u.client_id in byzantine.client_ids and std > 0:
                    arng = np.random.default_rng(
                        [config.seed, t, u.client_id, 0xBAD])
                    noise = std * arng.standard_normal(dim)
                    nf = len(u.delta_theta_f)
                    u.delta_theta_f = noise[:nf]
                    u.delta_theta_e = noise[nf:]
                    # the corrupted local model is what the ufm report
                    # reflects, so uncertainty-aware weighting can react
                    corrupted = ParameterSet(
                        network,
                        global_params.theta_f + u.delta_theta_f,
                        global_params.theta_e + u.delta_theta_e,
                        phis[u.client_id])
                    u.ufm = shard_ufm(corrupted, shards[u.client_id],
                                      config.ufm_eps)

        if config.aggregator == "resfl":
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
                global_params.phi.copy())

        ufms = {u.client_id: u.ufm for u in updates}
        if eval_samples is not None:
            acc, acc_g, dd, dep, eo, mean_u, var_u = _evaluate(global_params, eval_samples)
        else:
            acc, acc_g, dd, dep, eo = float("nan"), (), float("nan"), float("nan"), float("nan")
            mean_u = var_u = float("nan")
        mean_losses = tuple(float(np.mean([l[i] for l in losses])) for i in range(3))
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
    return global_params, records
