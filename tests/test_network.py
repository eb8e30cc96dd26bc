"""Forward/backward correctness of the MLP and its gradient reversal."""

import numpy as np
import pytest

from oracles import segment_view
from resfl_sim.network import (
    NetworkSpec,
    ParameterSet,
    backward_batch,
    forward_batch,
    init_params,
    sgd_step,
)


def small_spec():
    return NetworkSpec(input_dim=3, hidden_dims=(4, 3), num_classes=2, num_groups=3)


def random_params(spec, seed=0):
    return init_params(spec, np.random.default_rng(seed))


class TestSpecAndParams:
    def test_layout_by_hand(self):
        spec = small_spec()
        # (out, in): two feature layers, the task head, the adversary head
        assert spec.layout == ((4, 3), (3, 4), (2, 3), (3, 3))
        assert spec.theta_size == (4 * 3 + 4) + (3 * 4 + 3) + (2 * 3 + 2)
        assert spec.size == spec.theta_size + 3 * 3 + 3

    def test_wrong_length_or_strided_vector_rejected(self):
        spec = small_spec()
        good = random_params(spec)
        with pytest.raises(ValueError):
            ParameterSet(spec, good.flat[:-1])
        # the right length, but every other element of a longer vector
        with pytest.raises(ValueError):
            ParameterSet(spec, np.repeat(good.flat, 2)[::2])

    def test_init_glorot_bounds_and_zero_biases(self):
        spec = small_spec()
        params = random_params(spec, seed=7)
        for W, b in params.layers:
            fan_out, fan_in = W.shape
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(W) <= lim)
            assert np.all(b == 0.0)
        for W, b in (params.task_head, params.adversary_head):
            assert np.all(b == 0.0)

    def test_init_deterministic(self):
        spec = small_spec()
        a = random_params(spec, seed=5)
        b = random_params(spec, seed=5)
        assert np.array_equal(a.flat, b.flat)


@pytest.mark.parametrize("hidden", [(5,), (5, 4), (6, 5, 4)])
class TestLayout:
    # input_dim 3, 2 classes, 3 groups
    def spec(self, hidden):
        return NetworkSpec(input_dim=3, hidden_dims=hidden, num_classes=2, num_groups=3)

    def test_cached_layout_and_sizes_equal_the_closed_forms(self, hidden):
        spec = self.spec(hidden)
        dims = (3,) + hidden
        h = hidden[-1]
        features = tuple((dims[i + 1], dims[i]) for i in range(len(hidden)))
        assert spec.layout == features + ((2, h), (3, h))
        assert spec.theta_size == sum(a * b + b for a, b in zip(dims, dims[1:])) + 2 * (h + 1)
        assert spec.size == spec.theta_size + 3 * (h + 1)
        assert spec.layout is spec.layout  # computed once
        # the cache is not a field: equality and hashing see the fields only
        fresh = self.spec(hidden)
        assert spec == fresh and hash(spec) == hash(fresh)

    def test_layer_and_head_views_write_through_to_flat(self, hidden):
        params = ParameterSet.zeros(self.spec(hidden))
        views = [v for layer in params.layers for v in layer]
        views += [*params.task_head, *params.adversary_head]
        for view in views:
            before = params.flat.copy()
            view[...] = 7.0
            assert np.count_nonzero(params.flat != before) == view.size
        # the views tile flat
        assert (params.flat == 7.0).all()

    def test_sets_view_the_rows_of_a_block(self, hidden):
        spec = self.spec(hidden)
        block = np.arange(3 * spec.size, dtype=float).reshape(3, spec.size)
        sets = [ParameterSet(spec, row) for row in block]
        for row, params in zip(block, sets):
            assert np.shares_memory(params.flat, row)
            assert np.shares_memory(params.layers[0][0], row)
            assert np.shares_memory(params.adversary_head[1], row)
        before = block.copy()
        grads = ParameterSet.zeros(spec)
        grads.flat[:] = 1.0
        sgd_step(sets[1], grads, 0.5, 0.25)
        np.testing.assert_array_equal(block[[0, 2]], before[[0, 2]])
        np.testing.assert_array_equal(block[1, :spec.theta_size],
                                      before[1, :spec.theta_size] - 0.5)
        np.testing.assert_array_equal(block[1, spec.theta_size:],
                                      before[1, spec.theta_size:] - 0.25)
        copied = sets[1].copy()
        assert not np.shares_memory(copied.flat, block)
        np.testing.assert_array_equal(copied.flat, block[1])

    def test_theta_and_phi_split_flat_at_theta_size(self, hidden):
        params = random_params(self.spec(hidden), seed=3)
        n = params.spec.theta_size
        assert np.shares_memory(params.theta, params.flat)
        assert np.shares_memory(params.phi, params.flat)
        np.testing.assert_array_equal(params.theta, params.flat[:n])
        np.testing.assert_array_equal(params.phi, params.flat[n:])
        grads = ParameterSet.zeros(params.spec)
        grads.flat[:] = 1.0
        before = params.flat.copy()
        sgd_step(params, grads, 0.5, 0.5)  # in place
        np.testing.assert_array_equal(params.flat, before - 0.5)


def forward_one(params, x):
    """(latent h, task logits, adversary logits) of one input row."""
    _, _, H, Zt, Za = forward_batch(params, np.asarray(x, dtype=float)[None, :])
    return H[0], Zt[0], Za[0]


class TestForward:
    def test_zero_weights_expose_biases(self):
        spec = small_spec()
        params = ParameterSet.zeros(spec)
        # plant known biases in every segment
        layers = params.layers
        layers[-1][1][:] = [0.5, -1.0, 2.0]
        params.task_head[1][:] = [3.0, -4.0]
        params.adversary_head[1][:] = [1.0, 2.0, 3.0]
        h, z_task, z_adv = forward_one(params, np.array([9.0, -9.0, 1.0]))
        np.testing.assert_allclose(h, [0.5, 0.0, 2.0])
        np.testing.assert_allclose(z_task, [3.0, -4.0])
        np.testing.assert_allclose(z_adv, [1.0, 2.0, 3.0])

    def test_identity_layer_relu(self):
        spec = NetworkSpec(input_dim=2, hidden_dims=(2,), num_classes=2, num_groups=2)
        params = ParameterSet.zeros(spec)
        W, _ = params.layers[0]
        W[:] = np.eye(2)
        h, _, _ = forward_one(params, np.array([1.0, -1.0]))
        np.testing.assert_array_equal(h, [1.0, 0.0])

    def test_matches_straight_line_reimplementation(self):
        spec = small_spec()
        params = random_params(spec, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(spec.input_dim)
        a = x
        for W, b in params.layers:
            a = np.maximum(W @ a + b, 0.0)
        We, be = params.task_head
        Wa, ba = params.adversary_head
        h, z_task, z_adv = forward_one(params, x)
        np.testing.assert_allclose(h, a, rtol=1e-12)
        np.testing.assert_allclose(z_task, We @ a + be, rtol=1e-12)
        np.testing.assert_allclose(z_adv, Wa @ a + ba, rtol=1e-12)

    def test_dimension_mismatch_raises(self):
        params = random_params(small_spec())
        with pytest.raises(ValueError):
            forward_one(params, np.zeros(5))


def fd_segment(params, segment, scalar_fn, step=1e-5):
    """Central finite differences of scalar_fn over one parameter segment."""
    vec = segment_view(params, segment)
    out = np.empty_like(vec)
    for i in range(len(vec)):
        orig = vec[i]
        vec[i] = orig + step
        hi = scalar_fn(params)
        vec[i] = orig - step
        lo = scalar_fn(params)
        vec[i] = orig
        out[i] = (hi - lo) / (2 * step)
    return out


class TestBackward:
    def setup_method(self):
        self.spec = small_spec()
        # resample until every pre-activation is clear of the ReLU kink,
        # so finite differences stay on one side of it
        for seed in range(100):
            self.params = random_params(self.spec, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            self.X = rng.standard_normal((3, self.spec.input_dim))
            pres = forward_batch(self.params, self.X)[1]
            if min(np.abs(p).min() for p in pres) > 1e-3:
                break
        self.ut = rng.standard_normal((3, self.spec.num_classes))
        self.ua = rng.standard_normal((3, self.spec.num_groups))

    def test_lambda_zero_gives_task_only_backprop(self):
        g0 = backward_batch(self.params, self.X, self.ut, np.zeros_like(self.ua), 0.0,
                            ParameterSet.zeros(self.spec))
        g1 = backward_batch(self.params, self.X, self.ut, self.ua, 0.0,
                            ParameterSet.zeros(self.spec))
        np.testing.assert_array_equal(g0.theta, g1.theta)

    def test_sign_flip_with_zero_task_upstream(self):
        zero_t = np.zeros_like(self.ut)
        for c in (1.0, 0.5, 3.0):
            g = backward_batch(self.params, self.X, zero_t, self.ua, c,
                               ParameterSet.zeros(self.spec))
            base = backward_batch(self.params, self.X, zero_t, self.ua, 1.0,
                                  ParameterSet.zeros(self.spec))
            np.testing.assert_allclose(segment_view(g, "theta_f"),
                                       c * segment_view(base, "theta_f"), rtol=1e-12)
        # unit lambda equals the exact negation of the un-reversed backprop
        unrev = fd_segment(
            self.params, "theta_f",
            lambda p: float(np.sum(self.ua * forward_batch(p, self.X)[4])))
        g1 = backward_batch(self.params, self.X, zero_t, self.ua, 1.0,
                            ParameterSet.zeros(self.spec))
        np.testing.assert_allclose(segment_view(g1, "theta_f"), -unrev, rtol=1e-6, atol=1e-8)

    def test_adversary_upstream_linearity(self):
        zero_t = np.zeros_like(self.ut)
        g1 = backward_batch(self.params, self.X, zero_t, self.ua, 1.0,
                            ParameterSet.zeros(self.spec))
        g3 = backward_batch(self.params, self.X, zero_t, 3.0 * self.ua, 1.0,
                            ParameterSet.zeros(self.spec))
        np.testing.assert_allclose(segment_view(g3, "theta_f"),
                                   3.0 * segment_view(g1, "theta_f"), rtol=1e-12)
        np.testing.assert_allclose(g3.phi, 3.0 * g1.phi, rtol=1e-12)

    def test_finite_difference_all_segments(self):
        lam = 0.7

        def scalar_theta_f(p):
            _, _, _, Zt, Za = forward_batch(p, self.X)
            return float(np.sum(self.ut * Zt) - lam * np.sum(self.ua * Za))

        def scalar_theta_e(p):
            Zt = forward_batch(p, self.X)[3]
            return float(np.sum(self.ut * Zt))

        def scalar_phi(p):
            Za = forward_batch(p, self.X)[4]
            return float(np.sum(self.ua * Za))

        g = backward_batch(self.params, self.X, self.ut, self.ua, lam,
                           ParameterSet.zeros(self.spec))
        for segment, fn in (("theta_f", scalar_theta_f),
                            ("theta_e", scalar_theta_e),
                            ("phi", scalar_phi)):
            fd = fd_segment(self.params, segment, fn)
            np.testing.assert_allclose(segment_view(g, segment), fd, rtol=1e-4, atol=1e-7)


class TestSgdStep:
    # sgd_step updates its first argument in place
    def test_zero_grads_unchanged(self):
        params = random_params(small_spec())
        new = params.copy()
        sgd_step(new, ParameterSet.zeros(params.spec), 0.1, 0.1)
        np.testing.assert_array_equal(new.flat, params.flat)

    def test_one_step_arithmetic(self):
        params = random_params(small_spec())
        params.theta[:] = 1.0
        grads = ParameterSet.zeros(params.spec)
        grads.theta[:] = 2.0
        sgd_step(params, grads, 0.1, 0.1)
        np.testing.assert_allclose(params.theta, 0.8)

    def test_elementwise_recomputation(self):
        params = random_params(small_spec(), seed=1)
        grads = random_params(small_spec(), seed=2)
        new = params.copy()
        sgd_step(new, grads, 0.05, 0.2)
        for i in range(len(params.theta)):
            assert new.theta[i] == params.theta[i] - 0.05 * grads.theta[i]
        for i in range(len(params.phi)):
            assert new.phi[i] == params.phi[i] - 0.2 * grads.phi[i]
