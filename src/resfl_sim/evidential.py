"""Evidential classification and regression math.

Classification: logits map through softplus to per-class evidence
alpha_c = 1 + log(1 + exp(z_c)), the concentration parameters of a
Dirichlet over class probabilities. Total evidence alpha0 = sum(alpha),
predicted probabilities p_hat = alpha / alpha0, epistemic uncertainty
1 / alpha0.

Regression: Normal-Inverse-Gamma hyperparameters (gamma, nu, alpha,
beta) with epistemic variance beta / (nu * (alpha - 1)) and a Student-t
marginal negative log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln


def evidence_batch(Z: np.ndarray) -> np.ndarray:
    """Batched alpha from logits, shape preserved."""
    return 1.0 + np.logaddexp(0.0, np.asarray(Z, dtype=float))


def evidential_terms_batch(Z: np.ndarray, Y: np.ndarray):
    """Per-sample NLL and regularizer values plus their logit gradients.

    nll = sum_c (y_c - p_hat_c)^2 + y_c(1-y_c)/(alpha0+1), a Brier-style
    loss whose second term vanishes for hard one-hot labels;
    reg = sum_c |y_c - p_hat_c| * (2*alpha0 + 1), an overconfidence penalty.

    Z: (n, C) logits; Y: (n, C) one-hot (or soft) labels.
    Returns (nll, reg, dnll_dZ, dreg_dZ) with nll/reg shaped (n,).
    """
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float)
    A = evidence_batch(Z)
    S = A.sum(axis=1, keepdims=True)
    P = A / S

    diff = Y - P
    q = np.sum(Y * (1.0 - Y), axis=1, keepdims=True)
    nll = np.sum(diff ** 2, axis=1) + (q / (S + 1.0))[:, 0]
    abs_err = np.sum(np.abs(diff), axis=1, keepdims=True)
    reg = (abs_err * (2.0 * S + 1.0))[:, 0]

    # dL/dA via p_hat = A/S: dP_c/dA_j = (delta_cj - P_c)/S, plus the
    # direct dependence of each loss on S.
    dnll_dP = -2.0 * diff
    dnll_dA = (dnll_dP - np.sum(dnll_dP * P, axis=1, keepdims=True)) / S \
        - q / (S + 1.0) ** 2
    sgn = np.sign(diff)
    dreg_dP = -sgn * (2.0 * S + 1.0)
    dreg_dA = (dreg_dP - np.sum(dreg_dP * P, axis=1, keepdims=True)) / S \
        + 2.0 * abs_err

    dA_dZ = expit(Z)  # softplus derivative
    return nll, reg, dnll_dA * dA_dZ, dreg_dA * dA_dZ


@dataclass(frozen=True)
class NIGParams:
    gamma: float
    nu: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.nu <= 0 or self.alpha <= 1 or self.beta <= 0:
            raise ValueError("require nu > 0, alpha > 1, beta > 0")


def nig_epistemic_variance(p: NIGParams) -> float:
    """Var[mu] = beta / (nu * (alpha - 1))."""
    return p.beta / (p.nu * (p.alpha - 1.0))


def nig_nll(y: float, p: NIGParams) -> float:
    """Negative log Student-t marginal of the NIG evidential prior."""
    omega = 2.0 * p.beta * (1.0 + p.nu)
    return float(
        0.5 * np.log(np.pi / p.nu)
        - p.alpha * np.log(omega)
        + (p.alpha + 0.5) * np.log(p.nu * (y - p.gamma) ** 2 + omega)
        + gammaln(p.alpha)
        - gammaln(p.alpha + 0.5)
    )


def nig_regression_loss(y: float, p: NIGParams, lam: float = 0.0) -> float:
    """NLL plus lam * |y - gamma| * (2*nu + alpha)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return nig_nll(y, p) + lam * abs(y - p.gamma) * (2.0 * p.nu + p.alpha)
