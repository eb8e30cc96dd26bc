"""Evidential classification math."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    EvidentialOutput,
    evidence_from_logits,
    evidential_nll,
    evidential_reg,
    logits_for,
)
from resfl_sim.evidential import evidence_batch, evidential_terms_batch

LN2 = math.log(2.0)


def terms_at(alpha, label):
    """evidential_terms_batch for one sample given by its alphas and label."""
    nll, reg, _, _ = evidential_terms_batch(logits_for(alpha)[None, :],
                                            np.array([label]))
    return nll[0], reg[0]


class TestEvidenceFromLogits:
    def test_zero_logits(self):
        alpha = evidence_batch(np.array([0.0, 0.0]))
        np.testing.assert_allclose(alpha, [1 + LN2, 1 + LN2], rtol=1e-12)
        assert abs(alpha.sum() - 2 * (1 + LN2)) < 1e-12
        np.testing.assert_allclose(alpha / alpha.sum(), [0.5, 0.5], rtol=1e-12)

    def test_negative_saturation_floor(self):
        alpha = evidence_batch(np.array([-50.0, -800.0]))
        assert alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert alpha[1] == pytest.approx(1.0, abs=1e-12)

    def test_linear_branch(self):
        alpha = evidence_batch(np.array([100.0, 0.0]))
        assert abs(alpha[0] - 101.0) < 1e-10
        assert abs(alpha[1] - (1 + LN2)) < 1e-12

    def test_stable_at_extreme_magnitudes(self):
        alpha = evidence_batch(np.array([1e3, -1e3]))
        assert np.all(np.isfinite(alpha))
        assert alpha[0] == pytest.approx(1001.0, rel=1e-12)

    def test_non_finite_rejected(self):
        # the oracle's input guard; the package checks inputs in forward_batch
        with pytest.raises(ValueError):
            evidence_from_logits(np.array([np.inf, 0.0]))

    def test_batch_matches_single(self):
        Z = np.array([[0.3, -0.7], [2.0, 5.0]])
        A = evidence_batch(Z)
        for i in range(2):
            np.testing.assert_array_equal(A[i], evidence_from_logits(Z[i]).alpha)


class TestEvidentialLosses:
    def test_nll_hand_value(self):
        nll, _ = terms_at([2.0, 2.0], 0)
        assert nll == pytest.approx(0.5, abs=1e-12)

    def test_nll_second_hand_value(self):
        nll, _ = terms_at([3.0, 1.0], 1)
        assert nll == pytest.approx(1.125, abs=1e-12)

    def test_nll_perfect_prediction_limit(self):
        nll, _ = terms_at([1e12, 1.0], 0)
        assert nll < 1e-10

    def test_reg_hand_value(self):
        _, reg = terms_at([2.0, 2.0], 0)
        assert reg == pytest.approx(9.0, abs=1e-12)

    def test_reg_exact_prediction_is_zero(self):
        # a soft label equal to p_hat; the package takes class labels only
        out = evidence_from_logits(logits_for([3.0, 1.0]))
        assert evidential_reg(out.p_hat, out) == 0.0

    def test_reg_second_hand_value(self):
        _, reg = terms_at([9.0, 1.0], 0)
        assert reg == pytest.approx(4.2, abs=1e-12)


class TestEvidentialProperties:
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_p_hat_normalized(self, logits):
        out = evidence_from_logits(np.array(logits))
        assert abs(np.sum(out.p_hat) - 1.0) < 1e-12

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_uncertainty_bounded_by_inverse_c(self, logits):
        out = evidence_from_logits(np.array(logits))
        c = len(logits)
        # equality is reached when softplus underflows to zero evidence
        assert 0.0 < out.epistemic_uncertainty <= 1.0 / c

    # keep logits away from the regime where softplus is flat to float64
    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=4),
           st.floats(0.01, 10))
    @settings(max_examples=200, deadline=None)
    def test_uplifted_logits_reduce_uncertainty(self, logits, t):
        z = np.array(logits)
        lo = evidence_from_logits(z)
        hi = evidence_from_logits(z + t)
        assert hi.total_evidence > lo.total_evidence
        assert hi.epistemic_uncertainty < lo.epistemic_uncertainty

    # reg = S * (2 * a0 + 1) with S = sum|y - p_hat| fixed by p_hat, so it
    # grows by exactly 2 * S * (hi - lo). Asserting that gain, to within
    # the rounding of the two reg values, rather than reg_hi > reg_lo keeps
    # the property true for a0 a few ulps apart, where the gain (~1e-16) is
    # below that rounding (~1 ulp of reg, ~1e-15 here)
    @given(st.floats(1.1, 100), st.floats(1.1, 100))
    @example(1.1, 1.1000000000000003)
    @settings(max_examples=200, deadline=None)
    def test_reg_grows_with_evidence_at_fixed_p_hat(self, a0_small, a0_big):
        if a0_small == a0_big:
            return
        lo, hi = sorted((a0_small, a0_big))
        p = np.array([0.7, 0.3])
        y = np.array([1.0, 0.0])
        out_hi = EvidentialOutput(alpha=hi * p)
        reg_lo = evidential_reg(y, EvidentialOutput(alpha=lo * p))
        reg_hi = evidential_reg(y, out_hi)
        gain = 2.0 * np.sum(np.abs(y - out_hi.p_hat)) * (hi - lo)
        assert abs((reg_hi - reg_lo) - gain) <= 8 * np.finfo(float).eps * reg_hi


class TestTermsBatchGradients:
    def test_values_match_scalar_functions(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((4, 3))
        y = rng.integers(0, 3, size=4)
        Y = np.eye(3)[y]
        nll, reg, _, _ = evidential_terms_batch(Z, y)
        for i in range(4):
            out = evidence_from_logits(Z[i])
            assert nll[i] == pytest.approx(evidential_nll(Y[i], out), abs=1e-12)
            assert reg[i] == pytest.approx(evidential_reg(Y[i], out), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((3, 3))
        y = rng.integers(0, 3, size=3)
        _, _, dnll, dreg = evidential_terms_batch(Z, y)
        step = 1e-6
        for i in range(3):
            for j in range(3):
                Zp, Zm = Z.copy(), Z.copy()
                Zp[i, j] += step
                Zm[i, j] -= step
                n_hi, r_hi, _, _ = evidential_terms_batch(Zp, y)
                n_lo, r_lo, _, _ = evidential_terms_batch(Zm, y)
                assert dnll[i, j] == pytest.approx(
                    (n_hi[i] - n_lo[i]) / (2 * step), rel=1e-4, abs=1e-7)
                assert dreg[i, j] == pytest.approx(
                    (r_hi[i] - r_lo[i]) / (2 * step), rel=1e-4, abs=1e-6)

