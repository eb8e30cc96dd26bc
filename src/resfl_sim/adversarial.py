"""Adversary head, composite local loss, and the joint training step.

The adversary is a linear probe with softmax over the latent
representation; it tries to predict the sensitive group. Its
cross-entropy gradient updates phi normally, but flows back into the
feature extractor through the gradient reversal, so one training step
simultaneously descends the task objective and ascends the adversary's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evidential import evidential_terms_batch
from .network import ParameterSet, backward_batch, forward_batch, sgd_step

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class CompositeLossTerms:
    task: float
    uncertainty: float
    adversary: float


def softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def composite_gradients(
    params: ParameterSet,
    X: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    lambda1: float,
    lambda_adv: float,
    grads: ParameterSet,
) -> tuple[ParameterSet, CompositeLossTerms]:
    """Batch-mean gradients of the composite local loss, written into
    ``grads``. ``X`` is a 2-D float array, ``y`` and ``s`` int arrays.

    theta_f receives the task+uncertainty backprop plus the reversed
    adversary contribution; theta_e only task+uncertainty; phi only the
    unreversed adversary cross-entropy gradient. Raises
    FloatingPointError if a loss or a gradient is not finite.
    """
    n = X.shape[0]
    _, _, H, Zt, Za = forward_batch(params, X)
    nll, reg, dnll, dreg = evidential_terms_batch(Zt, y)

    P = softmax(Za)
    rows = np.arange(n)
    adv = -np.log(np.maximum(P[rows, s], PROB_FLOOR))
    P[rows, s] -= 1.0  # P minus the one-hot group: the adversary's dL/dZ

    up_task = (dnll + lambda1 * dreg) / n
    up_adv = P / n
    grads = backward_batch(params, X, up_task, up_adv, lambda_adv, grads)

    terms = CompositeLossTerms(  # np.mean's sums and division, without its wrapper
        task=float(np.add.reduce(nll) / n),
        uncertainty=float(np.add.reduce(reg) / n),
        adversary=float(np.add.reduce(adv) / n),
    )
    # one check for the step; a non-finite upstream shows in the bias sums
    if not (math.isfinite(terms.task) and math.isfinite(terms.uncertainty)
            and math.isfinite(terms.adversary) and np.isfinite(grads.flat).all()):
        raise FloatingPointError("non-finite loss or gradient")
    return grads, terms


def local_train_step(
    params: ParameterSet,
    grads: ParameterSet,
    X: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    eta: float,
    eta_phi: float,
    lambda1: float,
    lambda_adv: float,
) -> CompositeLossTerms:
    """One SGD step on a batch, applied to ``params`` in place: theta
    descends the composite loss under the reversal convention while phi
    descends the adversary loss. ``grads`` receives the step's gradients,
    so a caller stepping many times allocates it once.

    The theta update folds lambda_adv into the adversary upstream, so
    phi's effective rate for the cross-entropy is eta_phi.
    On FloatingPointError ``params`` is left as it was before the step.
    """
    _, terms = composite_gradients(params, X, y, s, lambda1, lambda_adv, grads)
    # backward_batch scales the phi gradient by 1, not lambda_adv; the
    # feature-extractor reversal already carries the lambda_adv factor.
    sgd_step(params, grads, eta, eta_phi)
    return terms
