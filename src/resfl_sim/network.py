"""Minimal feedforward network with manual backpropagation.

The network is a ReLU MLP feature extractor with two linear heads: a
task head of width ``num_classes`` and an adversary head of width
``num_groups``. Parameters live in three flat segments (feature
extractor, task head, adversary head) so federation code can treat them
as plain vectors. The adversary head is wired through a gradient
reversal: forward is the identity, backward multiplies the adversary
contribution into the feature extractor by ``-lambda_adv``.

All functions are pure; randomness comes from explicitly passed
``numpy.random.Generator`` instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_dims: tuple[int, ...] = (32, 32)
    num_classes: int = 2
    num_groups: int = 4

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 1 or self.num_groups < 1:
            raise ValueError("all dimensions must be >= 1")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be non-empty positive integers")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))

    @property
    def latent_dim(self) -> int:
        return self.hidden_dims[-1]

    def feature_shapes(self) -> list[tuple[tuple[int, int], tuple[int]]]:
        """(weight, bias) shapes for each feature layer, in order."""
        dims = (self.input_dim,) + self.hidden_dims
        return [((dims[i + 1], dims[i]), (dims[i + 1],)) for i in range(len(self.hidden_dims))]

    @property
    def feature_size(self) -> int:
        return sum(w[0] * w[1] + b[0] for w, b in self.feature_shapes())

    @property
    def task_head_size(self) -> int:
        return self.num_classes * self.latent_dim + self.num_classes

    @property
    def adversary_size(self) -> int:
        return self.num_groups * self.latent_dim + self.num_groups


@dataclass
class ParameterSet:
    """Flat parameter vectors: feature extractor, task head, adversary.

    Gradients share this layout."""

    spec: NetworkSpec
    theta_f: np.ndarray
    theta_e: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if self.theta_f.shape != (self.spec.feature_size,):
            raise ValueError("theta_f has wrong length for spec")
        if self.theta_e.shape != (self.spec.task_head_size,):
            raise ValueError("theta_e has wrong length for spec")
        if self.phi.shape != (self.spec.adversary_size,):
            raise ValueError("phi has wrong length for spec")

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.spec, self.theta_f.copy(), self.theta_e.copy(), self.phi.copy())

    def feature_layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views of (W, b) per feature layer, backed by theta_f."""
        out, off = [], 0
        for wshape, bshape in self.spec.feature_shapes():
            wn = wshape[0] * wshape[1]
            w = self.theta_f[off:off + wn].reshape(wshape)
            b = self.theta_f[off + wn:off + wn + bshape[0]]
            out.append((w, b))
            off += wn + bshape[0]
        return out

    def _head(self, vec: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        h = self.spec.latent_dim
        return vec[:width * h].reshape(width, h), vec[width * h:]

    def task_head(self) -> tuple[np.ndarray, np.ndarray]:
        return self._head(self.theta_e, self.spec.num_classes)

    def adversary_head(self) -> tuple[np.ndarray, np.ndarray]:
        return self._head(self.phi, self.spec.num_groups)


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> ParameterSet:
    """Glorot-uniform weights, zero biases."""

    def glorot_flat(shapes):
        parts = []
        for wshape, bshape in shapes:
            fan_out, fan_in = wshape
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            parts.append(rng.uniform(-lim, lim, size=wshape).ravel())
            parts.append(np.zeros(bshape))
        return np.concatenate(parts)

    h = spec.latent_dim
    theta_f = glorot_flat(spec.feature_shapes())
    theta_e = glorot_flat([((spec.num_classes, h), (spec.num_classes,))])
    phi = glorot_flat([((spec.num_groups, h), (spec.num_groups,))])
    return ParameterSet(spec, theta_f, theta_e, phi)


def forward_batch(params: ParameterSet, X: np.ndarray):
    """Forward pass over a batch.

    Returns (activations, H, Z_task, Z_adv) where activations holds the
    post-ReLU output of every feature layer (the last one is H) and the
    pre-activation arrays needed by backward_batch.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.spec.input_dim:
        raise ValueError(f"expected input_dim={params.spec.input_dim}, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input")
    acts = [X]
    pres = []
    a = X
    for W, b in params.feature_layers():
        pre = a @ W.T + b
        a = np.maximum(pre, 0.0)
        pres.append(pre)
        acts.append(a)
    We, be = params.task_head()
    Wa, ba = params.adversary_head()
    return acts, pres, a, a @ We.T + be, a @ Wa.T + ba


def backward_batch(
    params: ParameterSet,
    X: np.ndarray,
    upstream_task: np.ndarray,
    upstream_adv: np.ndarray,
    lambda_adv: float,
) -> ParameterSet:
    """Summed-over-batch gradients under the gradient-reversal convention.

    ``upstream_task`` / ``upstream_adv`` are dL/d(logits) per sample. The
    adversary gradient flows unmodified into phi; its contribution into
    the feature extractor is scaled by ``-lambda_adv``.
    """
    if lambda_adv < 0:
        raise ValueError("lambda_adv must be >= 0")
    upstream_task = np.atleast_2d(np.asarray(upstream_task, dtype=float))
    upstream_adv = np.atleast_2d(np.asarray(upstream_adv, dtype=float))
    if not (np.all(np.isfinite(upstream_task)) and np.all(np.isfinite(upstream_adv))):
        raise FloatingPointError("non-finite upstream gradient")
    acts, pres, H, _, _ = forward_batch(params, X)
    if upstream_task.shape[1] != params.spec.num_classes:
        raise ValueError("upstream_task width mismatch")
    if upstream_adv.shape[1] != params.spec.num_groups:
        raise ValueError("upstream_adv width mismatch")

    We, _ = params.task_head()
    Wa, _ = params.adversary_head()
    g_theta_e = np.concatenate([(upstream_task.T @ H).ravel(), upstream_task.sum(axis=0)])
    g_phi = np.concatenate([(upstream_adv.T @ H).ravel(), upstream_adv.sum(axis=0)])

    G = upstream_task @ We + (-lambda_adv) * (upstream_adv @ Wa)
    layers = params.feature_layers()
    grads_f = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        Gpre = G * (pres[i] > 0)
        grads_f[i] = np.concatenate([(Gpre.T @ acts[i]).ravel(), Gpre.sum(axis=0)])
        G = Gpre @ W
    return ParameterSet(params.spec, np.concatenate(grads_f), g_theta_e, g_phi)


def sgd_step(params: ParameterSet, grads: ParameterSet, eta: float,
             eta_phi: float | None = None) -> ParameterSet:
    """params - eta * grads, with a separate rate for the adversary head."""
    if eta <= 0:
        raise ValueError("eta must be > 0")
    eta_phi = eta if eta_phi is None else eta_phi
    if eta_phi <= 0:
        raise ValueError("eta_phi must be > 0")
    for seg in (grads.theta_f, grads.theta_e, grads.phi):
        if not np.all(np.isfinite(seg)):
            raise FloatingPointError("non-finite gradient")
    return ParameterSet(
        params.spec,
        params.theta_f - eta * grads.theta_f,
        params.theta_e - eta * grads.theta_e,
        params.phi - eta_phi * grads.phi,
    )
