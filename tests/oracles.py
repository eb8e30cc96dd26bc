"""Single-sample reference implementations of the package's batch math.

The package computes every loss on batches (``evidential_terms_batch``,
``composite_gradients``). These one-sample versions state the same
formulas directly, so tests can compare the batch code against them and
state properties on a single Dirichlet output. ``logits_for`` and
``zero_params`` build inputs for hand-value tests of the batch code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from resfl_sim.adversarial import PROB_FLOOR, softmax
from resfl_sim.network import NetworkSpec, ParameterSet


@dataclass(frozen=True)
class EvidentialOutput:
    alpha: np.ndarray

    @property
    def total_evidence(self) -> float:
        return float(np.sum(self.alpha))

    @property
    def p_hat(self) -> np.ndarray:
        return self.alpha / self.total_evidence

    @property
    def epistemic_uncertainty(self) -> float:
        return 1.0 / self.total_evidence


def evidence_from_logits(z: np.ndarray) -> EvidentialOutput:
    """alpha_c = 1 + softplus(z_c), stable for |z| up to ~1e3."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    return EvidentialOutput(alpha=1.0 + np.logaddexp(0.0, z))


def evidential_nll(y: np.ndarray, out: EvidentialOutput) -> float:
    """Brier-style NLL: sum_c (y_c - p_hat_c)^2 + y_c(1-y_c)/(alpha0+1)."""
    y = np.asarray(y, dtype=float)
    p = out.p_hat
    a0 = out.total_evidence
    return float(np.sum((y - p) ** 2) + np.sum(y * (1.0 - y)) / (a0 + 1.0))


def evidential_reg(y: np.ndarray, out: EvidentialOutput) -> float:
    """Overconfidence penalty: sum_c |y_c - p_hat_c| * (2*alpha0 + 1)."""
    y = np.asarray(y, dtype=float)
    return float(np.sum(np.abs(y - out.p_hat)) * (2.0 * out.total_evidence + 1.0))


def adversary_forward(params: ParameterSet, h: np.ndarray) -> np.ndarray:
    """Group probabilities from a latent vector via the linear adversary."""
    Wa, ba = params.adversary_head()
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite latent")
    return softmax(h @ Wa.T + ba)[0]


def adversary_loss(probs: np.ndarray, s: int) -> float:
    """-log P(s), with a probability floor for numerical safety."""
    probs = np.asarray(probs, dtype=float)
    if not 0 <= s < probs.shape[-1]:
        raise ValueError(f"group index {s} out of range")
    return float(-np.log(max(probs[s], PROB_FLOOR)))


def logits_for(alpha) -> np.ndarray:
    """Logits z with 1 + softplus(z) = alpha, so hand values stated in
    alpha can be fed to the batch code; alpha = 1 maps to z = -800."""
    e = np.asarray(alpha, dtype=float) - 1.0
    with np.errstate(divide="ignore"):
        z = e + np.log(-np.expm1(-e))  # log(exp(e) - 1) without overflow
    return np.where(e > 0, z, -800.0)


def zero_params(spec: NetworkSpec) -> ParameterSet:
    return ParameterSet(spec, np.zeros(spec.feature_size),
                        np.zeros(spec.task_head_size), np.zeros(spec.adversary_size))
