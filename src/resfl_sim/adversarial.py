"""Adversary head, composite local loss, and the joint training step.

The adversary is a linear probe with softmax over the latent
representation; it tries to predict the sensitive group. Its
cross-entropy gradient updates phi normally, but flows back into the
feature extractor through the gradient reversal, so one training step
simultaneously descends the task objective and ascends the adversary's.
"""

from __future__ import annotations

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
    lambda1: float
    lambda_adv: float

    @property
    def total(self) -> float:
        return self.task + self.lambda1 * self.uncertainty + self.lambda_adv * self.adversary


def softmax(Z: np.ndarray) -> np.ndarray:
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def one_hot(idx: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((len(idx), width))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def composite_gradients(
    params: ParameterSet,
    X: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    lambda1: float,
    lambda_adv: float,
) -> tuple[ParameterSet, CompositeLossTerms]:
    """Batch-mean gradients of the composite local loss.

    theta_f receives the task+uncertainty backprop plus the reversed
    adversary contribution; theta_e only task+uncertainty; phi only the
    unreversed adversary cross-entropy gradient.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    spec = params.spec
    _, _, H, Zt, Za = forward_batch(params, X)

    Y = one_hot(np.asarray(y, dtype=int), spec.num_classes)
    nll, reg, dnll, dreg = evidential_terms_batch(Zt, Y)

    P = softmax(Za)
    s = np.asarray(s, dtype=int)
    adv = -np.log(np.maximum(P[np.arange(n), s], PROB_FLOOR))
    dadv = P - one_hot(s, spec.num_groups)

    up_task = (dnll + lambda1 * dreg) / n
    up_adv = dadv / n
    grads = backward_batch(params, X, up_task, up_adv, lambda_adv)

    terms = CompositeLossTerms(
        task=float(nll.mean()),
        uncertainty=float(reg.mean()),
        adversary=float(adv.mean()),
        lambda1=lambda1,
        lambda_adv=lambda_adv,
    )
    for name, val in (("task", terms.task), ("uncertainty", terms.uncertainty),
                      ("adversary", terms.adversary)):
        if not np.isfinite(val):
            raise FloatingPointError(f"non-finite {name} loss")
    return grads, terms


def local_train_step(
    params: ParameterSet,
    X: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    eta: float,
    eta_phi: float | None,
    lambda1: float,
    lambda_adv: float,
) -> tuple[ParameterSet, CompositeLossTerms]:
    """One SGD step on a batch: theta descends the composite loss under
    the reversal convention while phi descends the adversary loss.

    The theta update folds lambda_adv into the adversary upstream, so
    phi's effective rate for the cross-entropy is eta_phi (default eta).
    """
    grads, terms = composite_gradients(params, X, y, s, lambda1, lambda_adv)
    # backward_batch scales the phi gradient by 1, not lambda_adv; the
    # feature-extractor reversal already carries the lambda_adv factor.
    new = sgd_step(params, grads, eta, eta_phi)
    return new, terms
