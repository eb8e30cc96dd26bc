"""Minimal feedforward network with manual backpropagation.

The network is a ReLU MLP feature extractor with two linear heads: a
task head of width ``num_classes`` and an adversary head of width
``num_groups``. Parameters live in one flat vector laid out by
``NetworkSpec.layout``: theta (feature extractor, then task head), the
part a client reports, then phi (adversary head), so federation code
can treat them as plain vectors. The adversary head is wired through a
gradient reversal: forward is the identity, backward multiplies the
adversary contribution into the feature extractor by ``-lambda_adv``.

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
    def layout(self) -> tuple[tuple[int, int], ...]:
        """(out, in) of every weight matrix in vector order: the feature
        layers, the task head, then the adversary head. Each weight is
        followed by its bias of length out."""
        dims = (self.input_dim,) + self.hidden_dims
        h = self.latent_dim
        return tuple(zip(dims[1:], dims)) + ((self.num_classes, h), (self.num_groups, h))

    @cached_property
    def theta_size(self) -> int:
        """Length of theta (all but the adversary head); phi starts here."""
        return sum(o * i + o for o, i in self.layout[:-1])

    @cached_property
    def size(self) -> int:
        return sum(o * i + o for o, i in self.layout)


@dataclass(frozen=True, eq=False)
class ParameterSet:
    """Views of one flat parameter vector laid out by ``spec.layout``.

    Gradients share this layout. The set views ``flat``, it does not copy
    it, so a set can be a row of a (K, size) block. ``theta`` and ``phi``,
    ``layers`` (a (W, b) per feature layer), ``task_head`` and
    ``adversary_head`` are views of ``flat`` built once, here, so they
    stay valid while the set is stepped in place."""

    spec: NetworkSpec
    flat: np.ndarray

    def __post_init__(self):
        spec, flat = self.spec, self.flat
        # a strided vector would reshape into copies, detaching the views
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64
                and flat.shape == (spec.size,) and flat.flags.c_contiguous):
            raise ValueError(f"flat must be a C-contiguous float64 vector of length {spec.size}")
        blocks, off = [], 0
        for out, inp in spec.layout:
            end = off + out * inp
            blocks.append((flat[off:end].reshape(out, inp), flat[end:end + out]))
            off = end + out
        views = {"theta": flat[:spec.theta_size], "phi": flat[spec.theta_size:],
                 "layers": tuple(blocks[:-2]), "task_head": blocks[-2],
                 "adversary_head": blocks[-1]}
        for name, value in views.items():
            object.__setattr__(self, name, value)

    @classmethod
    def zeros(cls, spec: NetworkSpec) -> "ParameterSet":
        return cls(spec, np.zeros(spec.size))

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.spec, self.flat.copy())


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> ParameterSet:
    """Glorot-uniform weights, zero biases, drawn in layout order."""
    parts = []
    for fan_out, fan_in in spec.layout:
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-lim, lim, size=(fan_out, fan_in)).ravel(),
                  np.zeros(fan_out)]
    return ParameterSet(spec, np.concatenate(parts))


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
    for W, b in params.layers:
        pre = a @ W.T + b
        a = np.maximum(pre, 0.0)
        pres.append(pre)
        acts.append(a)
    We, be = params.task_head
    Wa, ba = params.adversary_head
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
    its column's bias-gradient sum, and so the stepped model, non-finite,
    which the caller's check of the model catches.
    """
    acts, pres, H, _, _ = forward_batch(params, X)
    We, _ = params.task_head
    Wa, _ = params.adversary_head
    gWe, gbe = grads.task_head
    gWa, gba = grads.adversary_head
    np.matmul(upstream_task.T, H, out=gWe)
    upstream_task.sum(axis=0, out=gbe)
    np.matmul(upstream_adv.T, H, out=gWa)
    upstream_adv.sum(axis=0, out=gba)
    G = upstream_task @ We + (-lambda_adv) * (upstream_adv @ Wa)
    for i in range(len(params.layers) - 1, -1, -1):
        gW, gb = grads.layers[i]
        Gpre = G * (pres[i] > 0)
        np.matmul(Gpre.T, acts[i], out=gW)
        Gpre.sum(axis=0, out=gb)
        if i:  # the gradient into the input X is never used
            G = Gpre @ params.layers[i][0]
    return grads


def sgd_step(params: ParameterSet, grads: ParameterSet, eta: float,
             eta_phi: float) -> None:
    """params -= eta * grads, in place, with a separate rate for the
    adversary head."""
    np.subtract(params.theta, eta * grads.theta, out=params.theta)
    np.subtract(params.phi, eta_phi * grads.phi, out=params.phi)
