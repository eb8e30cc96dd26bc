"""The federated round loop and the three aggregators.

Each round: clients copy the global theta, run local SGD steps on their
shard (keeping a private adversary head between rounds), and report
one theta delta (theta_f then theta_e) plus their local
uncertainty-fairness value. Per-client state is rows indexed by client
id: a (K, theta_size) delta block allocated once per run, a (K,
phi_size) block of the private adversary heads, and each round's (K,)
UFM and (K, 3) loss rows; each client writes its own rows. Each
aggregator takes the reporting clients' delta rows and returns the
global delta, which the round loop adds to theta_G in place:

  - fedavg:   sample-count-weighted mean of deltas
  - fedavg_dp: each row clipped and noised in place, then fedavg
  - resfl:    eta_srv * sum_i 1/(1+ufm_i) * delta_i

The resfl sum is unnormalized by design; eta_srv defaults to 1/K so
that all-zero ufm reproduces FedAvg over equal shards exactly. A cell
reads its settings from the one ``ExperimentConfig``; the two rates it
may leave unset, ``eta_phi`` (follows ``eta``) and ``server_lr`` (1/K),
are resolved where they are read.

A Byzantine client's delta row is overwritten with noise scaled to the
first-round mean honest-update norm before aggregation. A round in
which every client drops leaves the model frozen, is recorded like any
other, and ends the run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .adversarial import local_train_step
from .config import ExperimentConfig
from .evidential import model_evidence
from .fairness import aggregation_weight, group_uncertainties, \
    ufm as ufm_metric, uncertainty_variance
from .metrics import accuracy_by_group, confusion_by_group, delta_eop, di_deviation, eod
from .network import NetworkSpec, ParameterSet, init_params

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class ByzantineSpec:
    """Malicious clients replace their reported deltas with Gaussian noise.

    The noise vector's expected norm is ``scale`` times the first-round
    mean honest-update norm (the per-coordinate std spreads that
    magnitude over the parameter dimension).
    """
    client_ids: tuple[int, ...]
    scale: float


@dataclass(frozen=True, eq=False)  # array fields: no element-wise ==
class RoundRecord:
    """One round: the global model's evaluation, and per client its UFM,
    ``ufm`` (K,), and mean task, uncertainty and adversary losses,
    ``losses`` (K, 3); a client dropped in the round has NaN rows."""
    round: int
    accuracy: float
    acc_by_group: tuple[float, ...]
    di_dev: float
    delta_eop: float
    eod: float
    unc_var: float
    ufm: np.ndarray
    losses: np.ndarray

    @property
    def ufm_mean(self) -> float:
        """Mean UFM of the reporting clients; NaN in a frozen round."""
        reported = self.ufm[~np.isnan(self.ufm)]
        return float(np.mean(reported)) if reported.size else float("nan")


def client_rng(seed: int, client_id: int, round_idx: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(round_idx), int(client_id)])


def initial_params(network: NetworkSpec, seed: int) -> ParameterSet:
    return init_params(network, np.random.default_rng([seed, 0x1217]))


def client_round(global_params: ParameterSet, phi: np.ndarray, shard,
                 config: ExperimentConfig, rng: np.random.Generator,
                 params: ParameterSet, grads: ParameterSet, delta: np.ndarray,
                 losses: np.ndarray) -> float:
    """Local training for one client; returns its UFM (:func:`shard_ufm`).

    ``params`` and ``grads`` are the run's local-training workspace: the
    global theta and ``phi`` are loaded into ``params``, which is stepped
    in place, and ``grads`` receives each step's gradients. Clients train
    one at a time, so one workspace serves every client round of a run;
    its contents on entry are never read. After the last step the theta
    delta (theta_f then theta_e) is written into ``delta``, the new
    adversary head into ``phi`` and the mean task, uncertainty and
    adversary losses into ``losses``, the client's rows. A client whose
    summed step losses or stepped model are not finite has nothing usable
    to report: it raises FloatingPointError and leaves all three rows as
    they were. phi persists client-side; only theta deltas travel to the
    server.
    """
    if not shard:
        raise ValueError("empty shard")
    np.copyto(params.theta, global_params.theta)
    np.copyto(params.phi, phi)
    eta_phi = config.eta if config.eta_phi is None else config.eta_phi
    total = np.zeros(3)
    # a diverging client overflows on its way to the FloatingPointError
    # that drops it; the explicit finiteness check reports it, not NumPy
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(config.local_iterations):
            idx = rng.choice(len(shard), size=min(config.batch_size, len(shard)),
                             replace=False)
            batch = shard[idx]
            total += local_train_step(
                params, grads, batch.X, batch.y, batch.s,
                config.eta, eta_phi, config.lambda1, config.lambda_adv)
    # the one check of the round: a non-finite loss or gradient of any
    # step shows in the summed losses or the stepped model
    if not (np.isfinite(total).all() and np.isfinite(params.flat).all()):
        raise FloatingPointError("non-finite loss or model")
    np.subtract(params.theta, global_params.theta, out=delta)
    np.copyto(phi, params.phi)
    np.divide(total, max(config.local_iterations, 1), out=losses)
    return shard_ufm(params, shard)


def shard_ufm(params: ParameterSet, shard) -> float:
    """Uncertainty-fairness value of ``params`` on a shard. A degenerate
    model, whose total evidence is not finite on some sample, reports the
    upper bound G (the number of groups), the smallest ``resfl`` weight."""
    alpha0 = np.add.reduce(model_evidence(params, shard.X), axis=1)  # .sum's own call
    if not np.all(np.isfinite(alpha0)):
        return float(params.spec.num_groups)
    return ufm_metric(group_uncertainties(alpha0, shard.s, params.spec.num_groups))


def _weighted_delta_sum(rows, weights):
    """sum_k weights[k] * rows[k], accumulated in client order.

    Shared by all aggregators so equal-weight paths are bit-identical.
    """
    total = np.zeros_like(rows[0])
    for row, w in zip(rows, weights):
        total += w * row
    return total


def aggregate_fedavg(rows, counts) -> np.ndarray:
    """Global delta of the delta ``rows`` weighted by each client's sample
    count."""
    if not len(rows):
        raise ValueError("no updates")
    total = sum(counts)
    return _weighted_delta_sum(rows, [c / total for c in counts])


def aggregate_resfl(rows, ufms, server_lr: float) -> np.ndarray:
    """Global delta eta_srv * sum_i omega_i * delta_i (unnormalized weights)."""
    if not len(rows):
        raise ValueError("no updates")
    return _weighted_delta_sum(rows, [server_lr * aggregation_weight(u) for u in ufms])


def _l2_norm(row: np.ndarray) -> float:
    """L2 norm of ``row``; a finite row whose sum of squares overflows is
    divided by its largest |entry| first, so its norm is finite."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(row))
    if math.isinf(norm) and np.isfinite(row).all():
        big = float(np.abs(row).max())
        norm = big * float(np.linalg.norm(row / big))
    return norm


def apply_dp(delta: np.ndarray, clip: float, noise_scale: float,
             rng: np.random.Generator) -> None:
    """Clip the theta delta row in place to L2 norm ``clip`` (> 0) and add
    N(0, (scale*clip)^2 I) for a ``noise_scale`` >= 0."""
    norm = _l2_norm(delta)
    delta *= min(1.0, clip / norm) if norm > 0 else 1.0
    if noise_scale > 0:
        delta += noise_scale * clip * rng.standard_normal(delta.shape)


def _evaluate(params: ParameterSet, eval_samples):
    """Accuracy, per-group accuracies, DI deviation, delta EOP, EOD and the
    variance of group uncertainty (``RoundRecord``'s order), each NaN where
    undefined: all of them, G accuracies among them, without samples and
    for a model whose evidence is not finite on some sample, which has no
    prediction (argmax would read NaN as class 0)."""
    nan = float("nan")
    undefined = nan, (nan,) * params.spec.num_groups, nan, nan, nan, nan
    if eval_samples is None:
        return undefined
    alpha = model_evidence(params, eval_samples.X)
    if not np.isfinite(alpha).all():
        return undefined
    preds = np.argmax(alpha, axis=1)
    acc, acc_g = accuracy_by_group(preds, eval_samples.y, eval_samples.s,
                                   params.spec.num_groups)
    conf = confusion_by_group(preds, eval_samples.y, eval_samples.s)
    us = group_uncertainties(alpha.sum(axis=1), eval_samples.s, params.spec.num_groups)
    return (acc, tuple(acc_g), di_deviation(conf), delta_eop(conf), eod(conf),
            uncertainty_variance(us))


def run_experiment(config: ExperimentConfig, algorithm: str, seed: int, shards,
                   eval_samples, byzantine: ByzantineSpec | None = None,
                   ) -> tuple[ParameterSet, list[RoundRecord]]:
    """Run the full federated loop of the ``(algorithm, seed)`` cell on the
    network ``config.network()``; deterministic given the seed.
    ``eval_samples`` may be None, which leaves the metrics NaN."""
    if len(shards) != config.num_clients:
        raise ValueError("shards must match num_clients")
    network = config.network()
    global_params = initial_params(network, seed)
    K = config.num_clients
    # per-client rows: the private adversary heads, and the theta deltas
    # each round rewrites for the clients that report
    phis = np.tile(global_params.phi, (K, 1))
    deltas = np.empty((K, network.theta_size))
    # the local-training workspace, shared by every client round of the run
    local, grads = ParameterSet.zeros(network), ParameterSet.zeros(network)

    server_lr = 1.0 / K if config.server_lr is None else config.server_lr
    ref_norm = 0.0
    records: list[RoundRecord] = []
    for t in range(config.rounds):
        # the round's reports; a dropped client's rows stay NaN
        ufm = np.full(K, np.nan)
        losses = np.full((K, 3), np.nan)
        for cid in range(K):
            rng = client_rng(seed, cid, t)
            try:
                ufm[cid] = client_round(global_params, phis[cid], shards[cid], config,
                                        rng, local, grads, deltas[cid], losses[cid])
            except FloatingPointError as exc:
                log.warning("round %d: dropping client %d (%s)", t, cid, exc)
        alive = np.flatnonzero(~np.isnan(ufm)).tolist()  # shard_ufm is never NaN

        if alive and byzantine is not None and byzantine.client_ids:
            if t == 0:
                # honest first-round norm, frozen as the reference
                # magnitude of the Byzantine noise
                ref_norm = float(np.mean([_l2_norm(deltas[k]) for k in alive]))
            dim = deltas.shape[1]
            std = byzantine.scale * max(ref_norm, 1e-12) / math.sqrt(dim)
            for k in alive:
                if k in byzantine.client_ids and std > 0:
                    arng = np.random.default_rng([seed, t, k, 0xBAD])
                    deltas[k] = std * arng.standard_normal(dim)
                    # the corrupted local model is what the ufm report
                    # reflects, so uncertainty-aware weighting can react;
                    # it is built in the workspace, free after the clients
                    np.add(global_params.theta, deltas[k], out=local.theta)
                    np.copyto(local.phi, phis[k])
                    ufm[k] = shard_ufm(local, shards[k])

        if algorithm == "fedavg_dp":
            for k in alive:
                apply_dp(deltas[k], config.dp_clip, config.dp_noise_scale,
                         np.random.default_rng([seed, t, k, 0xDF]))
        if not alive:
            # nothing can move the global model anymore: record it frozen
            # and stop, so a destroyed model reads as low accuracy, not a crash
            log.warning("round %d: all clients failed; freezing global model", t)
        else:
            # row views, not deltas[alive], which would copy the block
            rows = [deltas[k] for k in alive]
            delta = aggregate_resfl(rows, ufm[alive], server_lr) \
                if algorithm == "resfl" else \
                aggregate_fedavg(rows, [len(shards[k]) for k in alive])
            # the set is frozen, so the attribute takes no +=
            np.add(global_params.theta, delta, out=global_params.theta)

        records.append(RoundRecord(t, *_evaluate(global_params, eval_samples), ufm, losses))
        if not alive:
            break
    return global_params, records
