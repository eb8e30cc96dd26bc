"""Adversary head, composite loss, and the reversal-coupled training step."""

import math

import numpy as np
import pytest

from oracles import adversary_forward, adversary_loss, evidence_from_logits, \
    evidential_nll, evidential_reg, reference_step, segment_view
from resfl_sim.adversarial import (
    PROB_FLOOR,
    composite_gradients,
    local_train_step,
    softmax,
)
from resfl_sim.network import NetworkSpec, ParameterSet, forward_batch, init_params


def spec4():
    return NetworkSpec(input_dim=5, hidden_dims=(6,), num_classes=3, num_groups=4)


def gradients(params, X, y, s, lambda1, lambda_adv):
    """composite_gradients into a fresh gradient set: (grads, loss row)."""
    grads = ParameterSet.zeros(params.spec)
    return grads, composite_gradients(params, X, y, s, lambda1, lambda_adv, grads)


# the loss row's columns, RoundRecord.losses' order
TASK, UNC, ADV = range(3)


def params4(seed=0):
    return init_params(spec4(), np.random.default_rng(seed))


def batch(seed=1, n=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 5))
    y = rng.integers(0, 3, size=n)
    s = rng.integers(0, 4, size=n)
    return X, y, s


def saturated_params():
    """Latent H = 1 for every input, adversary logits (600, 0, 0, 0)."""
    params = ParameterSet.zeros(spec4())
    params.layers[0][1][:] = 1.0
    params.adversary_head[0][0, :] = 100.0
    return params


class TestAdversaryForward:
    def test_zero_params_uniform(self):
        params = ParameterSet.zeros(spec4())
        X, y, _ = batch()
        probs = softmax(forward_batch(params, X)[4])
        np.testing.assert_allclose(probs, 0.25, rtol=1e-12)
        _, losses = gradients(params, X, y, np.zeros(len(y), dtype=int), 0.1, 0.5)
        assert losses[ADV] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_group_uniform(self):
        spec = NetworkSpec(input_dim=2, hidden_dims=(3,), num_classes=2, num_groups=2)
        X = np.random.default_rng(0).standard_normal((5, 2))
        _, losses = gradients(ParameterSet.zeros(spec), X, np.zeros(5, dtype=int),
                              np.ones(5, dtype=int), 0.1, 0.5)
        assert losses[ADV] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_probabilities(self):
        params = saturated_params()
        X, y, _ = batch()
        probs = softmax(forward_batch(params, X)[4])
        np.testing.assert_allclose(probs[:, 0], 1.0, rtol=0, atol=1e-12)
        _, losses = gradients(params, X, y, np.zeros(len(y), dtype=int), 0.1, 0.5)
        assert losses[ADV] == pytest.approx(0.0, abs=1e-12)

    def test_saturated_wrong_group_hits_probability_floor(self):
        # P(s = 1) is about exp(-600), far below the floor
        X, y, _ = batch()
        _, losses = gradients(saturated_params(), X, y,
                              np.ones(len(y), dtype=int), 0.1, 0.5)
        assert losses[ADV] == pytest.approx(-math.log(PROB_FLOOR), abs=1e-12)

    def test_probability_floor_bounds_loss(self):
        # even a literally-zero probability yields a finite loss
        assert adversary_loss(np.array([1.0, 0.0]), 1) == pytest.approx(
            -math.log(PROB_FLOOR))

    def test_bad_group_index(self):
        with pytest.raises(ValueError):
            adversary_loss(np.array([0.5, 0.5]), 2)

    def test_softmax_shift_invariance(self):
        z = np.array([[1.0, 2.0, -3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 1000.0), rtol=1e-12)

    def test_batch_adversary_loss_is_mean_of_oracle(self):
        params = params4()
        X, y, s = batch()
        H = forward_batch(params, X)[2]
        _, losses = gradients(params, X, y, s, 0.1, 0.5)
        expect = np.mean([adversary_loss(adversary_forward(params, H[i]), s[i])
                          for i in range(len(s))])
        assert losses[ADV] == pytest.approx(expect, rel=0, abs=1e-12)


class TestCompositeGradients:
    def test_loss_composition(self):
        # the composite loss at lambda1 = 0.3, lambda_adv = 0.7, built from
        # the three terms, is the mean of the single-sample oracles' one
        params = params4()
        X, y, s = batch()
        _, losses = gradients(params, X, y, s, lambda1=0.3, lambda_adv=0.7)
        _, _, H, Zt, _ = forward_batch(params, X)
        onehot = np.eye(3)[y]
        expect = np.mean([
            evidential_nll(onehot[i], evidence_from_logits(Zt[i]))
            + 0.3 * evidential_reg(onehot[i], evidence_from_logits(Zt[i]))
            + 0.7 * adversary_loss(adversary_forward(params, H[i]), s[i])
            for i in range(len(y))])
        assert losses @ [1.0, 0.3, 0.7] == pytest.approx(expect, abs=1e-12)

    def test_theta_f_linear_in_lambda_adv(self):
        params = params4()
        X, y, s = batch()
        g0, _ = gradients(params, X, y, s, 0.1, 0.0)
        g1, _ = gradients(params, X, y, s, 0.1, 1.0)
        g3, _ = gradients(params, X, y, s, 0.1, 3.0)
        f0, f1, f3 = (segment_view(g, "theta_f") for g in (g0, g1, g3))
        np.testing.assert_allclose(f3, f0 + 3.0 * (f1 - f0),
                                   rtol=1e-9, atol=1e-12)

    def test_phi_isolated_from_task_and_lambda(self):
        params = params4()
        X, y, s = batch()
        g_a, _ = gradients(params, X, y, s, 0.0, 0.0)
        g_b, _ = gradients(params, X, y, s, 5.0, 2.0)
        np.testing.assert_array_equal(g_a.phi, g_b.phi)

    def test_theta_e_unaffected_by_adversary(self):
        params = params4()
        X, y, s = batch()
        g_a, _ = gradients(params, X, y, s, 0.4, 0.0)
        g_b, _ = gradients(params, X, y, s, 0.4, 2.5)
        np.testing.assert_array_equal(segment_view(g_a, "theta_e"),
                                      segment_view(g_b, "theta_e"))

    def test_overflow_inputs_give_non_finite_losses(self):
        # the step does not check: client_round drops what this leaves
        params = params4()
        X, y, s = batch()
        X = np.full_like(X, 1e308)
        with np.errstate(all="ignore"):
            _, losses = gradients(params, X, y, s, 0.1, 0.5)
        assert losses.shape == (3,) and not np.isfinite(losses).all()


class TestLocalTrainStep:
    # local_train_step updates its first argument in place
    def step(self, params, X, y, s, eta, eta_phi, lambda1, lambda_adv):
        losses = local_train_step(params, ParameterSet.zeros(params.spec), X, y, s,
                                  eta, eta_phi, lambda1, lambda_adv)
        return params, losses

    def test_lambda_zero_matches_privacy_free_theta_update(self):
        X, y, s = batch()
        a, _ = self.step(params4(), X, y, s, 0.05, 0.05, 0.1, 0.0)
        b, _ = self.step(params4(), X, y, s, 0.05, 0.05, 0.1, 2.0)
        # with lambda_adv = 0 the theta update ignores the adversary entirely
        g0, _ = gradients(params4(), X, y, s, 0.1, 0.0)
        expect = segment_view(params4(), "theta_f") - 0.05 * segment_view(g0, "theta_f")
        np.testing.assert_allclose(segment_view(a, "theta_f"), expect, rtol=1e-12)
        assert not np.array_equal(segment_view(a, "theta_f"), segment_view(b, "theta_f"))

    def test_separate_phi_rate(self):
        X, y, s = batch()
        params = params4()
        grads, _ = gradients(params, X, y, s, 0.1, 0.5)
        new, _ = self.step(params.copy(), X, y, s, 0.05, 0.2, 0.1, 0.5)
        np.testing.assert_allclose(new.phi, params.phi - 0.2 * grads.phi, rtol=1e-12)

    def test_step_reduces_composite_loss(self):
        X, y, s = batch()
        params = params4()
        new, before = self.step(params, X, y, s, 0.01, 0.01, 0.1, 0.0)
        _, after = gradients(new, X, y, s, 0.1, 0.0)
        assert after[TASK] + 0.1 * after[UNC] < before[TASK] + 0.1 * before[UNC]


class TestStepMatchesReference:
    @pytest.mark.parametrize("hidden", [(12,), (12, 8), (16, 8, 8)])
    @pytest.mark.parametrize("lambda_adv", [0.0, 0.5])
    @pytest.mark.parametrize("eta_phi", [0.05, 0.2])
    def test_chained_steps_are_bitwise_equal(self, hidden, lambda_adv, eta_phi):
        spec = NetworkSpec(input_dim=6, hidden_dims=hidden, num_classes=3, num_groups=4)
        rng = np.random.default_rng(len(hidden))
        X = rng.standard_normal((40, 6))
        y = rng.integers(0, 3, size=40)
        s = rng.integers(0, 4, size=40)
        params = init_params(spec, rng)
        ref = params.copy()
        grads = ParameterSet.zeros(spec)
        for step in range(200):
            # batch_size 16; every fourth batch is a short one of 7 rows
            idx = rng.choice(40, size=7 if step % 4 == 3 else 16, replace=False)
            losses = local_train_step(params, grads, X[idx], y[idx], s[idx],
                                      0.05, eta_phi, 0.1, lambda_adv)
            ref, ref_terms = reference_step(ref, X[idx], y[idx], s[idx],
                                            0.05, eta_phi, 0.1, lambda_adv)
            assert np.array_equal(params.flat, ref.flat)
            assert losses.tolist() == list(ref_terms)
