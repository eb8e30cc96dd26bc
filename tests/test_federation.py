"""Round loop, aggregators, DP mechanism, and end-to-end determinism."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from oracles import segment_view
from resfl_sim import adversarial, fairness, federation, network
from resfl_sim.config import ExperimentConfig
from resfl_sim.datasets import generate_dataset, partition
from resfl_sim.adversarial import local_train_step
from resfl_sim.evidential import evidential_terms_batch
from resfl_sim.federation import (
    ByzantineSpec,
    aggregate_fedavg,
    aggregate_resfl,
    apply_dp,
    client_rng,
    client_round,
    initial_params,
    run_experiment,
    shard_ufm,
)
from resfl_sim.network import ParameterSet, backward_batch, init_params


def tiny_config(**kw):
    """ExperimentConfig's defaults with ``kw`` laid over tiny_data's sizes:
    6 features, 30 samples per group and 2 clients."""
    base = dict(input_dim=6, samples_per_group=(30,) * 4, num_clients=2, rounds=2,
                local_iterations=3, batch_size=16, eta=0.01, lambda_adv=0.1)
    return ExperimentConfig(seeds=(0,), **{**base, **kw})


# the network tiny_data's shards train
NET = tiny_config().network()


def tiny_data(seed=0):
    data = generate_dataset(tiny_config(), seed=seed)
    return data, partition(data, 2, beta=0.5, seed=seed)


def run(cfg, shards, data, algorithm="resfl", byzantine=None):
    """The seed-0 cell of ``algorithm``."""
    return run_experiment(cfg, algorithm, 0, shards, data, byzantine=byzantine)


def workspace(spec):
    """A fresh local-training workspace: scratch model and gradient set."""
    return ParameterSet.zeros(spec), ParameterSet.zeros(spec)


def train(global_params, shard, cfg, rng, work=None, phi=None):
    """One client_round into fresh delta, phi and loss rows (phi starts
    as the global head unless given); returns (delta, phi, ufm, losses)."""
    delta = np.full(global_params.spec.theta_size, np.nan)
    phi = (global_params.phi if phi is None else phi).copy()
    losses = np.full(3, np.nan)
    work = workspace(global_params.spec) if work is None else work
    ufm = client_round(global_params, phi, shard, cfg, rng, *work, delta, losses)
    return delta, phi, ufm, losses


class TestConfig:
    def test_dp_noise_scale_formula(self):
        cfg = tiny_config(dp_epsilon=0.5)
        expect = math.sqrt(2.0 * math.log(1.25 / 1e-5)) / 0.5
        assert cfg.dp_noise_scale == pytest.approx(expect, rel=1e-12)

    def test_cell_trains_the_network_of_its_config(self):
        # the cell builds its network from the config's data and
        # [federation] sizes; no separate network is passed
        data, shards = tiny_data()
        cfg = tiny_config(hidden_dims=(12, 6), rounds=1)
        params, _ = run(cfg, shards, data)
        assert params.spec == cfg.network() != NET
        assert params.flat.shape == initial_params(cfg.network(), 0).flat.shape


class TestClientRound:
    def setup_method(self):
        _, self.shards = tiny_data()
        self.params = init_params(NET, np.random.default_rng(0))

    def test_zero_iterations_zero_delta(self):
        cfg = tiny_config(local_iterations=0)
        delta, phi, _, _ = train(self.params, self.shards[0], cfg, client_rng(0, 0, 0))
        assert not delta.any()
        np.testing.assert_array_equal(phi, self.params.phi)

    def test_deterministic(self):
        cfg = tiny_config()
        a = train(self.params, self.shards[0], cfg, client_rng(0, 0, 0))
        b = train(self.params, self.shards[0], cfg, client_rng(0, 0, 0))
        self.assert_same_round(a, b)

    def test_one_iteration_matches_manual_step(self):
        cfg = tiny_config(local_iterations=1)
        shard = self.shards[0]
        delta, phi, _, _ = train(self.params, shard, cfg, client_rng(0, 0, 0))
        rng = client_rng(0, 0, 0)
        idx = rng.choice(len(shard), size=min(cfg.batch_size, len(shard)),
                         replace=False)
        batch = shard[idx]
        manual = self.params.copy()  # local_train_step steps it in place
        # an unset eta_phi follows eta
        local_train_step(manual, ParameterSet.zeros(manual.spec), batch.X, batch.y,
                         batch.s, cfg.eta, cfg.eta, cfg.lambda1, cfg.lambda_adv)
        np.testing.assert_array_equal(delta, manual.theta - self.params.theta)
        np.testing.assert_array_equal(phi, manual.phi)

    def test_writes_only_its_own_rows(self):
        # the client's delta, phi and loss rows of a (K, .) block change;
        # the other rows and the global model do not
        cfg = tiny_config()
        spec = self.params.spec
        deltas = np.full((3, spec.theta_size), 7.0)
        phis = np.tile(self.params.phi, (3, 1))
        losses = np.full((3, 3), 7.0)
        before = (self.params.flat.copy(), deltas.copy(), phis.copy(), losses.copy())
        ufm = client_round(self.params, phis[1], self.shards[0], cfg,
                           client_rng(0, 0, 0), *workspace(spec), deltas[1], losses[1])
        delta, phi, ufm_ref, losses_ref = train(self.params, self.shards[0], cfg,
                                                client_rng(0, 0, 0))
        np.testing.assert_array_equal(deltas[1], delta)
        np.testing.assert_array_equal(phis[1], phi)
        np.testing.assert_array_equal(losses[1], losses_ref)
        assert ufm == ufm_ref
        np.testing.assert_array_equal(self.params.flat, before[0])
        for block, b in zip((deltas, phis, losses), before[1:]):
            np.testing.assert_array_equal(block[[0, 2]], b[[0, 2]])

    def test_loss_row_is_the_mean_of_the_step_losses(self):
        cfg = tiny_config(local_iterations=2)
        shard = self.shards[0]
        _, _, _, losses = train(self.params, shard, cfg, client_rng(0, 0, 0))
        rng, manual = client_rng(0, 0, 0), self.params.copy()
        rows = []
        for _ in range(2):
            batch = shard[rng.choice(len(shard), size=cfg.batch_size, replace=False)]
            rows.append(local_train_step(
                manual, ParameterSet.zeros(manual.spec), batch.X, batch.y, batch.s,
                cfg.eta, cfg.eta, cfg.lambda1, cfg.lambda_adv))
        np.testing.assert_allclose(losses, np.mean(rows, axis=0), rtol=1e-14)

    @pytest.mark.parametrize("cause", [
        "non_finite_loss", "non_finite_upstream", "non_finite_gradient",
        "parameter_overflow"])
    def test_dropped_client_raises_and_leaves_its_rows(self, cause, monkeypatch):
        # client_round's one check after the last step catches every cause
        params = self.params.copy()
        cfg = getattr(self, cause)(monkeypatch, params)
        phi = params.phi + 0.5
        delta, losses = np.full(NET.theta_size, 7.0), np.full(3, 7.0)
        before = (params.flat.copy(), phi.copy(), delta.copy(), losses.copy())
        with pytest.raises(FloatingPointError):
            client_round(params, phi, self.shards[0], cfg, client_rng(0, 0, 0),
                         *workspace(NET), delta, losses)
        for b, a in zip(before, (params.flat, phi, delta, losses)):
            np.testing.assert_array_equal(a, b)

    @staticmethod
    def non_finite_loss(monkeypatch, params):
        # one sample's task loss is NaN; the gradients and model stay finite
        def terms(Z, y):
            nll, reg, dnll, dreg = evidential_terms_batch(Z, y)
            nll[0] = np.nan
            return nll, reg, dnll, dreg

        monkeypatch.setattr(adversarial, "evidential_terms_batch", terms)
        return tiny_config()

    @staticmethod
    def non_finite_upstream(monkeypatch, params):
        # backward_batch leaves its upstream unchecked: an inf in it makes
        # the gradient, and so the stepped model, non-finite
        def terms(Z, y):
            nll, reg, dnll, dreg = evidential_terms_batch(Z, y)
            dnll[0, 0] = np.inf
            return nll, reg, dnll, dreg

        monkeypatch.setattr(adversarial, "evidential_terms_batch", terms)
        return tiny_config()

    @staticmethod
    def non_finite_gradient(monkeypatch, params):
        def backward(*args):
            grads = backward_batch(*args)
            segment_view(grads, "theta_e")[0] = np.nan
            return grads

        monkeypatch.setattr(adversarial, "backward_batch", backward)
        return tiny_config()

    @staticmethod
    def parameter_overflow(monkeypatch, params):
        # finite losses and gradients, but features large enough that one
        # adversary-head step at rate 1e308 overflows phi to inf
        params.layers[0][0][:] *= 10
        return tiny_config(local_iterations=1, eta_phi=1e308)

    def test_client_diverging_after_its_first_step_leaves_inputs_untouched(self):
        # eta = 1e300 gives a finite first step and a non-finite second one
        shard = self.shards[0]
        phi = self.params.phi + 0.5
        delta = np.full(self.params.spec.theta_size, 7.0)
        losses = np.full(3, 7.0)
        before = (self.params.flat.copy(), phi.copy(), delta.copy(), losses.copy())
        with np.errstate(over="ignore", invalid="ignore"):
            train(self.params, shard, tiny_config(local_iterations=1, eta=1e300),
                  client_rng(0, 0, 0), phi=phi)
        with pytest.raises(FloatingPointError):
            client_round(self.params, phi, shard, tiny_config(local_iterations=3, eta=1e300),
                         client_rng(0, 0, 0), *workspace(self.params.spec), delta, losses)
        after = (self.params.flat, phi, delta, losses)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def assert_same_round(self, a, b):
        (delta_a, phi_a, ufm_a, loss_a), (delta_b, phi_b, ufm_b, loss_b) = a, b
        np.testing.assert_array_equal(delta_a, delta_b)
        np.testing.assert_array_equal(phi_a, phi_b)
        np.testing.assert_array_equal(loss_a, loss_b)
        assert ufm_a == ufm_b

    def test_workspace_reused_after_a_client_diverges_mid_round(self):
        spec = self.params.spec
        work = workspace(spec)
        # client A: eta = 1e300 gives a finite first step and a raising later one
        phi_a = self.params.phi + 0.5
        phi_a_before = phi_a.copy()
        with pytest.raises(FloatingPointError):
            client_round(self.params, phi_a, self.shards[0],
                         tiny_config(local_iterations=3, eta=1e300),
                         client_rng(0, 0, 0), *work, np.empty(spec.theta_size),
                         np.empty(3))
        np.testing.assert_array_equal(phi_a, phi_a_before)
        assert not np.array_equal(segment_view(work[0], "theta_f"),
                                  segment_view(self.params, "theta_f"))  # left stepped
        # client B on the dirty workspace and on a fresh one
        cfg = tiny_config()
        reused = train(self.params, self.shards[1], cfg, client_rng(0, 1, 0), work=work)
        fresh = train(self.params, self.shards[1], cfg, client_rng(0, 1, 0))
        self.assert_same_round(reused, fresh)

    def test_workspace_contents_on_entry_are_never_read(self):
        cfg = tiny_config()
        fresh = train(self.params, self.shards[0], cfg, client_rng(0, 0, 0))
        params, grads = workspace(self.params.spec)
        params.flat[:] = np.nan
        grads.flat[:] = np.nan
        dirty = train(self.params, self.shards[0], cfg, client_rng(0, 0, 0),
                      work=(params, grads))
        self.assert_same_round(dirty, fresh)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            train(self.params, self.shards[0][:0], tiny_config(), client_rng(0, 0, 0))

    def test_shard_ufm_finite_on_garbage_params(self):
        bad = self.params.copy()
        bad.theta[:] = 1e300
        v = shard_ufm(bad, self.shards[0])
        assert math.isfinite(v)
        assert 0.0 <= v <= self.params.spec.num_groups

    @pytest.mark.parametrize("bias", [(np.inf, np.inf), (np.inf, -np.inf),
                                      (np.nan, np.nan)])
    def test_shard_ufm_of_non_finite_evidence_is_the_upper_bound(self, bias):
        # a degenerate model reports maximal disparity, the smallest resfl
        # weight, not UFM 0 and the largest
        bad = self.params.copy()
        bad.task_head[1][:] = bias
        assert shard_ufm(bad, self.shards[0]) == float(NET.num_groups)


class TestAggregators:
    def test_fedavg_weighted_mean(self):
        delta = aggregate_fedavg(np.array([[4.0, 0.0], [0.0, 8.0]]), [1, 3])
        assert delta[0] == pytest.approx(1.0, abs=1e-15)
        assert delta[1] == pytest.approx(6.0, abs=1e-15)

    def test_fedavg_identical_updates_passthrough(self):
        rows = np.tile([2.0, -1.0, 0.5], (3, 1))
        np.testing.assert_allclose(aggregate_fedavg(rows, [7] * 3), [2.0, -1.0, 0.5],
                                   rtol=1e-15)

    def test_resfl_hand_value(self):
        rows = np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 0.0]])
        # eta_srv=0.5: 0.5 * (1*2 + 0.5*2) = 1.5
        delta = aggregate_resfl(rows, [0.0, 1.0], server_lr=0.5)
        np.testing.assert_allclose(delta[:2], 1.5, rtol=1e-15)
        assert delta[2] == 0.0

    def test_resfl_bit_identical_to_fedavg_when_fair(self):
        rows = np.random.default_rng(3).standard_normal((4, 9))
        assert np.array_equal(aggregate_resfl(rows, [0.0] * 4, server_lr=0.25),
                              aggregate_fedavg(rows, [10] * 4))

    def test_resfl_weight_linearity(self):
        row = np.ones(9)
        one = aggregate_resfl([row], [0.5], server_lr=1.0)
        two = aggregate_resfl([row, row], [0.5, 0.5], server_lr=1.0)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_result_is_a_new_array_and_updates_untouched(self):
        block = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
        before = block.copy()
        rows = [block[0], block[1]]  # run_experiment passes row views
        for delta in (aggregate_fedavg(rows, [2, 1]),
                      aggregate_resfl(rows, [0.5, 0.0], server_lr=1.0)):
            delta += 100.0  # run_experiment adds it to theta in place
            assert not np.shares_memory(delta, block)
        np.testing.assert_array_equal(block, before)

    def test_empty_updates_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fedavg([], [])
        with pytest.raises(ValueError):
            aggregate_resfl([], [], 1.0)


class TestApplyDp:
    def test_clip_only_halves_long_update(self):
        delta = np.array([3.0, 0.0, 0.0, 4.0])  # norm 5
        assert apply_dp(delta, clip=2.5, noise_scale=0.0,
                        rng=np.random.default_rng(0)) is None
        np.testing.assert_allclose(delta, [1.5, 0.0, 0.0, 2.0], rtol=1e-15)

    def test_short_update_untouched_without_noise(self):
        delta = np.array([0.1, 0.0, 0.0, 0.1])
        before = delta.copy()
        apply_dp(delta, clip=10.0, noise_scale=0.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(delta, before)

    def test_noise_statistics(self):
        # Monte-Carlo oracle: mean ~ clipped delta, std ~ noise_scale * clip
        rng = np.random.default_rng(0)
        draws = np.zeros((4000, 6))
        for row in draws:
            apply_dp(row, 1.0, 0.5, rng)
        assert abs(draws.mean()) < 0.02
        assert draws.std() == pytest.approx(0.5, rel=0.05)

    def test_dp_noise_deterministic_by_rng(self):
        a, b = np.array([1.0, 2.0]), np.array([1.0, 2.0])
        apply_dp(a, 1.0, 0.3, np.random.default_rng(42))
        apply_dp(b, 1.0, 0.3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_row_whose_squared_norm_overflows_is_clipped_not_zeroed(self):
        delta = np.full(10, 1e160)
        apply_dp(delta, clip=1.0, noise_scale=0.0, rng=np.random.default_rng(0))
        assert np.linalg.norm(delta) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(delta, 10 ** -0.5, rtol=1e-12)

    def test_row_of_a_block_changes_alone(self):
        block = np.arange(12.0).reshape(3, 4)
        before = block.copy()
        apply_dp(block[1], 1.0, 0.3, np.random.default_rng(42))
        expected = before[1].copy()
        apply_dp(expected, 1.0, 0.3, np.random.default_rng(42))
        np.testing.assert_array_equal(block[1], expected)
        np.testing.assert_array_equal(block[[0, 2]], before[[0, 2]])


class TestRunExperiment:
    def test_zero_rounds(self):
        data, shards = tiny_data()
        # a config error at load; set on a built config, the library
        # still runs no rounds
        cfg = tiny_config()
        cfg.rounds = 0
        params, records = run(cfg, shards, data)
        assert records == []
        ref = initial_params(params.spec, 0)
        np.testing.assert_array_equal(params.flat, ref.flat)

    def test_deterministic_end_to_end(self):
        data, shards = tiny_data()
        cfg = tiny_config(rounds=3)
        pa, ra = run(cfg, shards, data)
        pb, rb = run(cfg, shards, data)
        np.testing.assert_array_equal(pa.flat, pb.flat)
        assert [r.accuracy for r in ra] == [r.accuracy for r in rb]
        np.testing.assert_array_equal(ra[-1].ufm, rb[-1].ufm)
        np.testing.assert_array_equal(ra[-1].losses, rb[-1].losses)

    def test_single_client_fedavg_replays_centralized_sgd(self):
        data, _ = tiny_data()
        cfg = tiny_config(num_clients=1, rounds=1, local_iterations=4, server_lr=1.0)
        params, _ = run(cfg, [data], data, "fedavg")
        # replay: one client, full-weight aggregation == its local endpoint
        net = params.spec
        start = initial_params(net, 0)
        delta, _, _, _ = train(start, data, cfg, client_rng(0, 0, 0))
        np.testing.assert_array_equal(params.theta, start.theta + delta)

    def test_round_records_hold_a_row_per_client(self):
        data, shards = tiny_data()
        _, records = run(tiny_config(), shards, data)
        for r in records:
            assert r.ufm.shape == (2,) and r.losses.shape == (2, 3)
            assert np.all(np.isfinite(r.ufm)) and np.all(np.isfinite(r.losses))
            assert np.all((0.0 <= r.ufm) & (r.ufm <= NET.num_groups))

    def test_shard_count_mismatch_rejected(self):
        data, shards = tiny_data()
        with pytest.raises(ValueError):
            run(tiny_config(num_clients=3), shards, data)

    def test_all_dropped_round_is_recorded_frozen_and_ends_the_run(self):
        data, shards = tiny_data()
        cfg = tiny_config(rounds=4, eta=1e300)
        params, recs = run(cfg, shards, data)
        assert len(recs) < cfg.rounds
        last = recs[-1]
        assert np.all(np.isnan(last.ufm)) and np.all(np.isnan(last.losses))
        assert 0.0 <= last.accuracy <= 1.0
        assert np.all(np.isfinite(params.flat))
        _, no_eval = run(cfg, shards, None)
        assert [r.round for r in no_eval] == [r.round for r in recs]
        assert math.isnan(no_eval[-1].accuracy) and no_eval[-1].acc_by_group == ()

    def test_partial_drop_leaves_the_dropped_rows_and_aggregates_the_rest(
            self, monkeypatch):
        # client 0's huge features give a finite first step and a raising
        # second one, which drops it after its workspace has moved; client 1 trains
        data, shards = tiny_data()
        shards = [replace(shards[0], X=shards[0].X * 1e200), shards[1]]
        cfg = tiny_config(rounds=1)
        phi_rows = []  # the run's phi row views, in client order

        def recording(global_params, phi, *args):
            phi_rows.append(phi)
            return client_round(global_params, phi, *args)

        monkeypatch.setattr(federation, "client_round", recording)
        params, (rec,) = run(cfg, shards, data, "fedavg")
        start = initial_params(NET, 0)
        np.testing.assert_array_equal(phi_rows[0], start.phi)
        delta, _, ufm, losses = train(start, shards[1], cfg, client_rng(0, 1, 0))
        np.testing.assert_array_equal(params.theta, start.theta + delta)
        # the dropped client's rows are NaN, the reporting client's its report
        assert math.isnan(rec.ufm[0]) and rec.ufm[1] == ufm
        assert np.all(np.isnan(rec.losses[0]))
        np.testing.assert_array_equal(rec.losses[1], losses)

    def test_byzantine_empty_or_zero_scale_is_clean(self):
        data, shards = tiny_data()
        cfg = tiny_config(rounds=2)
        clean, _ = run(cfg, shards, data, "fedavg")
        none, _ = run(cfg, shards, data, "fedavg",
                      byzantine=ByzantineSpec(client_ids=(), scale=10.0))
        zero, _ = run(cfg, shards, data, "fedavg",
                      byzantine=ByzantineSpec(client_ids=(0,), scale=0.0))
        np.testing.assert_array_equal(clean.flat, none.flat)
        np.testing.assert_array_equal(clean.flat, zero.flat)

    def test_byzantine_noise_changes_model_and_reports_ufm(self):
        data, shards = tiny_data()
        cfg = tiny_config(rounds=2)
        clean, _ = run(cfg, shards, data, "fedavg")
        hit, recs = run(cfg, shards, data, "fedavg",
                        byzantine=ByzantineSpec(client_ids=(0,), scale=5.0))
        assert not np.array_equal(segment_view(clean, "theta_f"),
                                  segment_view(hit, "theta_f"))
        assert all(math.isfinite(r.ufm[0]) for r in recs)

    def test_fedavg_dp_runs_and_differs_from_fedavg(self):
        data, shards = tiny_data()
        cfg = tiny_config(dp_epsilon=0.5, dp_clip=1.0)
        plain, _ = run(cfg, shards, data, "fedavg")
        noisy, _ = run(cfg, shards, data, "fedavg_dp")
        assert not np.array_equal(segment_view(plain, "theta_f"),
                                  segment_view(noisy, "theta_f"))


class TestCallCounts:
    def test_cell_calls_match_the_benchmark_identities(self, monkeypatch):
        # the call counts a cell of R rounds, K clients and L local steps
        # must show, counted at every module that binds each function:
        # two forward passes per step (the loss and the backward pass's
        # recompute), one per client round (shard_ufm), and one forward
        # pass and group_uncertainties call per round for evaluation and
        # for each Byzantine client's corrupted-model UFM
        counts = {}

        def count(fn):
            counts[fn.__name__] = 0

            def counted(*args, **kwargs):
                counts[fn.__name__] += 1
                return fn(*args, **kwargs)
            return counted

        for original in (local_train_step, network.forward_batch,
                         fairness.group_uncertainties):
            wrapper = count(original)
            for name, mod in list(sys.modules.items()):
                if name.startswith("resfl_sim"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, wrapper)

        data, shards = tiny_data()
        cfg = tiny_config(rounds=3)
        run(cfg, shards, data, byzantine=ByzantineSpec(client_ids=(1,), scale=10.0))
        R, K, L = cfg.rounds, cfg.num_clients, cfg.local_iterations
        e = 1 + 1  # evaluation plus one Byzantine client
        assert counts == {
            "local_train_step": R * K * L,
            "forward_batch": 2 * R * K * L + R * K + R * e,
            "group_uncertainties": R * K + R * e,
        }
