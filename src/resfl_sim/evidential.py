"""Evidential classification math.

Logits map through softplus to per-class evidence
alpha_c = 1 + log(1 + exp(z_c)), the concentration parameters of a
Dirichlet over class probabilities. Total evidence alpha0 = sum(alpha),
predicted probabilities p_hat = alpha / alpha0, epistemic uncertainty
1 / alpha0.
"""

from __future__ import annotations

import numpy as np


def evidence_batch(Z: np.ndarray) -> np.ndarray:
    """Batched alpha from logits, shape preserved."""
    return 1.0 + np.logaddexp(0.0, Z)


@np.errstate(over="ignore")
def softplus_derivative(Z: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-z)), elementwise.

    exp(-z) overflows to inf below z of about -709, where the quotient
    is 0, the sigmoid's limit; the overflow is expected and not reported.
    """
    return 1.0 / (1.0 + np.exp(-Z))


def evidential_terms_batch(Z: np.ndarray, y: np.ndarray):
    """Per-sample NLL and regularizer values plus their logit gradients.

    nll = sum_c (y_c - p_hat_c)^2, a Brier-style loss (its Dirichlet
    variance term y_c(1-y_c)/(alpha0+1) vanishes for one-hot labels);
    reg = sum_c |y_c - p_hat_c| * (2*alpha0 + 1), an overconfidence penalty.

    Z: (n, C) logits; y: (n,) class labels, whose one-hot rows are the
    y_c above.
    Returns (nll, reg, dnll_dZ, dreg_dZ) with nll/reg shaped (n,).
    """
    A = evidence_batch(Z)
    S = A.sum(axis=1, keepdims=True)
    P = A / S

    diff = np.eye(Z.shape[1])[y] - P
    nll = (diff ** 2).sum(axis=1)
    abs_err = np.abs(diff).sum(axis=1, keepdims=True)
    weight = 2.0 * S + 1.0
    reg = (abs_err * weight)[:, 0]

    # dL/dA via p_hat = A/S: dP_c/dA_j = (delta_cj - P_c)/S, plus the
    # direct dependence of each loss on S.
    dnll_dP = -2.0 * diff
    dnll_dA = (dnll_dP - (dnll_dP * P).sum(axis=1, keepdims=True)) / S
    dreg_dP = -np.sign(diff) * weight
    dreg_dA = (dreg_dP - (dreg_dP * P).sum(axis=1, keepdims=True)) / S \
        + 2.0 * abs_err

    dA_dZ = softplus_derivative(Z)
    return nll, reg, dnll_dA * dA_dZ, dreg_dA * dA_dZ
