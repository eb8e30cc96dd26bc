"""Minimal feedforward network with manual backpropagation.

The network is a ReLU MLP feature extractor with two linear heads: a
task head of width ``num_classes`` and an adversary head of width
``num_groups``. Parameters live in three flat segments (feature
extractor, task head, adversary head) so federation code can treat them
as plain vectors. The adversary head is wired through a gradient
reversal: forward is the identity, backward multiplies the adversary
contribution into the feature extractor by ``-lambda_adv``.

``sgd_step`` updates its parameters in place and ``backward_batch``
writes into the gradient set it is given; nothing else mutates its
arguments. Randomness comes from explicitly passed
``numpy.random.Generator`` instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    num_groups: int

    @property
    def latent_dim(self) -> int:
        return self.hidden_dims[-1]

    # the layout below is computed once per spec; the cache lives in the
    # instance dict, outside the fields, so eq and hash are unchanged

    @cached_property
    def feature_shapes(self) -> tuple[tuple[tuple[int, int], tuple[int]], ...]:
        """(weight, bias) shapes for each feature layer, in order."""
        dims = (self.input_dim,) + self.hidden_dims
        return tuple(((dims[i + 1], dims[i]), (dims[i + 1],))
                     for i in range(len(self.hidden_dims)))

    @cached_property
    def feature_size(self) -> int:
        return sum(w[0] * w[1] + b[0] for w, b in self.feature_shapes)

    @cached_property
    def task_head_size(self) -> int:
        return self.num_classes * self.latent_dim + self.num_classes

    @cached_property
    def adversary_size(self) -> int:
        return self.num_groups * self.latent_dim + self.num_groups


@dataclass(frozen=True, eq=False)
class ParameterSet:
    """Parameter vectors: feature extractor, task head, adversary.

    Gradients share this layout. The constructor copies its three
    arguments into one array, ``flat``, and the segments become views of
    it, as does ``theta`` (theta_f then theta_e, the part a client
    reports); the per-layer and head views are built once, here, so they
    stay valid while the set is stepped in place."""

    spec: NetworkSpec
    theta_f: np.ndarray
    theta_e: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        spec = self.spec
        nf, ne = spec.feature_size, spec.task_head_size
        if self.theta_f.shape != (nf,):
            raise ValueError("theta_f has wrong length for spec")
        if self.theta_e.shape != (ne,):
            raise ValueError("theta_e has wrong length for spec")
        if self.phi.shape != (spec.adversary_size,):
            raise ValueError("phi has wrong length for spec")
        flat = np.concatenate((self.theta_f, self.theta_e, self.phi), dtype=float)
        theta_f, theta_e, phi = flat[:nf], flat[nf:nf + ne], flat[nf + ne:]
        layers, off = [], 0
        for wshape, bshape in spec.feature_shapes:
            wn = wshape[0] * wshape[1]
            layers.append((theta_f[off:off + wn].reshape(wshape),
                           theta_f[off + wn:off + wn + bshape[0]]))
            off += wn + bshape[0]
        h = spec.latent_dim

        def head(vec, width):
            return vec[:width * h].reshape(width, h), vec[width * h:]

        views = {"flat": flat, "theta": flat[:nf + ne], "theta_f": theta_f,
                 "theta_e": theta_e, "phi": phi,
                 "_layers": tuple(layers),
                 "_task_head": head(theta_e, spec.num_classes),
                 "_adversary_head": head(phi, spec.num_groups)}
        for name, value in views.items():
            object.__setattr__(self, name, value)

    @classmethod
    def zeros(cls, spec: NetworkSpec) -> "ParameterSet":
        return cls(spec, np.zeros(spec.feature_size), np.zeros(spec.task_head_size),
                   np.zeros(spec.adversary_size))

    def copy(self) -> "ParameterSet":
        # the constructor copies
        return ParameterSet(self.spec, self.theta_f, self.theta_e, self.phi)

    def feature_layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Views of (W, b) per feature layer, backed by theta_f."""
        return self._layers

    def task_head(self) -> tuple[np.ndarray, np.ndarray]:
        return self._task_head

    def adversary_head(self) -> tuple[np.ndarray, np.ndarray]:
        return self._adversary_head


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
    theta_f = glorot_flat(spec.feature_shapes)
    theta_e = glorot_flat([((spec.num_classes, h), (spec.num_classes,))])
    phi = glorot_flat([((spec.num_groups, h), (spec.num_groups,))])
    return ParameterSet(spec, theta_f, theta_e, phi)


def forward_batch(params: ParameterSet, X: np.ndarray):
    """Forward pass over a batch.

    Returns (activations, H, Z_task, Z_adv) where activations holds the
    post-ReLU output of every feature layer (the last one is H) and the
    pre-activation arrays needed by backward_batch. ``X`` is a 2-D float
    array of ``input_dim`` columns; ``generate_dataset`` made it finite.
    """
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
    grads: ParameterSet,
) -> ParameterSet:
    """Summed-over-batch gradients under the gradient-reversal convention.

    ``upstream_task`` / ``upstream_adv`` are dL/d(logits) per sample. The
    adversary gradient flows unmodified into phi; its contribution into
    the feature extractor is scaled by ``-lambda_adv``. The gradients are
    written into ``grads``, which is returned. The upstreams are 2-D
    float arrays of widths ``num_classes`` and ``num_groups``.

    The upstream is not checked for finiteness: a non-finite entry makes
    its column's bias-gradient sum non-finite, which the caller's check
    of the gradients catches.
    """
    acts, pres, H, _, _ = forward_batch(params, X)
    We, _ = params.task_head()
    Wa, _ = params.adversary_head()
    gWe, gbe = grads.task_head()
    gWa, gba = grads.adversary_head()
    np.matmul(upstream_task.T, H, out=gWe)
    upstream_task.sum(axis=0, out=gbe)
    np.matmul(upstream_adv.T, H, out=gWa)
    upstream_adv.sum(axis=0, out=gba)
    G = upstream_task @ We + (-lambda_adv) * (upstream_adv @ Wa)
    layers, glayers = params.feature_layers(), grads.feature_layers()
    for i in range(len(layers) - 1, -1, -1):
        gW, gb = glayers[i]
        Gpre = G * (pres[i] > 0)
        np.matmul(Gpre.T, acts[i], out=gW)
        Gpre.sum(axis=0, out=gb)
        if i:  # the gradient into the input X is never used
            G = Gpre @ layers[i][0]
    return grads


def sgd_step(params: ParameterSet, grads: ParameterSet, eta: float,
             eta_phi: float) -> None:
    """params -= eta * grads, in place, with a separate rate for the
    adversary head."""
    np.subtract(params.theta, eta * grads.theta, out=params.theta)
    np.subtract(params.phi, eta_phi * grads.phi, out=params.phi)
