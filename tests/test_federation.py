"""Round loop, aggregators, DP mechanism, and end-to-end determinism."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from resfl_sim import fairness, network
from resfl_sim.datasets import SynthSpec, generate_dataset, partition
from resfl_sim.adversarial import local_train_step
from resfl_sim.federation import (
    ByzantineSpec,
    ClientUpdate,
    FederationConfig,
    aggregate_fedavg,
    aggregate_resfl,
    apply_dp,
    client_rng,
    client_round,
    run_experiment,
    shard_ufm,
)
from resfl_sim.network import NetworkSpec, ParameterSet, init_params


def tiny_data(seed=0, per_group=30):
    spec = SynthSpec(input_dim=6, samples_per_group=(per_group,) * 4)
    data = generate_dataset(spec, seed=seed)
    return data, partition(data, 2, beta=0.5, seed=seed)


def tiny_config(**kw):
    base = dict(num_clients=2, rounds=2, local_iterations=3, batch_size=16,
                eta=0.01, lambda_adv=0.1, aggregator="resfl", seed=0)
    base.update(kw)
    return FederationConfig(**base)


def workspace(spec):
    """A fresh local-training workspace: scratch model and gradient set."""
    return ParameterSet.zeros(spec), ParameterSet.zeros(spec)


def mk_update(cid, df, de, ufm=0.0, n=1):
    return ClientUpdate(client_id=cid, delta_theta_f=np.asarray(df, dtype=float),
                        delta_theta_e=np.asarray(de, dtype=float), ufm=ufm,
                        sample_count=n)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FederationConfig(num_clients=0)
        with pytest.raises(ValueError):
            FederationConfig(eta=0.0)
        with pytest.raises(ValueError):
            FederationConfig(aggregator="median")
        with pytest.raises(ValueError):
            FederationConfig(aggregator="fedavg_dp")  # missing epsilon/clip
        with pytest.raises(ValueError):
            FederationConfig(aggregator="fedavg_dp", dp_epsilon=-1.0, dp_clip=1.0)

    @pytest.mark.parametrize("field, value", [
        ("eta_phi", 0.0), ("eta_phi", -0.1), ("lambda1", -1.0), ("lambda_adv", -0.01)])
    def test_rates_and_weights_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FederationConfig(**{field: value})

    def test_server_lr_default(self):
        assert FederationConfig(num_clients=4).effective_server_lr == 0.25
        assert FederationConfig(num_clients=4, server_lr=1.0).effective_server_lr == 1.0

    def test_dp_noise_scale_formula(self):
        cfg = FederationConfig(aggregator="fedavg_dp", dp_epsilon=2.0, dp_clip=1.0)
        expect = math.sqrt(2.0 * math.log(1.25 / 1e-5)) / 2.0
        assert cfg.dp_noise_scale == pytest.approx(expect, rel=1e-12)


class TestClientRound:
    def setup_method(self):
        _, self.shards = tiny_data()
        net = NetworkSpec(input_dim=6)
        self.params = init_params(net, np.random.default_rng(0))

    def test_zero_iterations_zero_delta(self):
        cfg = tiny_config(local_iterations=0)
        u, phi, _ = client_round(self.params, self.params.phi, self.shards[0],
                                 cfg, client_rng(0, 0, 0), *workspace(self.params.spec))
        assert not u.delta_theta_f.any() and not u.delta_theta_e.any()
        np.testing.assert_array_equal(phi, self.params.phi)
        assert u.sample_count == len(self.shards[0])

    def test_deterministic(self):
        cfg = tiny_config()
        a = client_round(self.params, self.params.phi, self.shards[0],
                         cfg, client_rng(0, 0, 0), *workspace(self.params.spec))[0]
        b = client_round(self.params, self.params.phi, self.shards[0],
                         cfg, client_rng(0, 0, 0), *workspace(self.params.spec))[0]
        np.testing.assert_array_equal(a.delta_theta_f, b.delta_theta_f)
        assert a.ufm == b.ufm

    def test_one_iteration_matches_manual_step(self):
        cfg = tiny_config(local_iterations=1)
        shard = self.shards[0]
        u, _, _ = client_round(self.params, self.params.phi, shard,
                               cfg, client_rng(0, 0, 0), *workspace(self.params.spec))
        rng = client_rng(0, 0, 0)
        idx = rng.choice(len(shard), size=min(cfg.batch_size, len(shard)),
                         replace=False)
        batch = shard[idx]
        manual = self.params.copy()  # local_train_step steps it in place
        local_train_step(manual, ParameterSet.zeros(manual.spec), batch.X, batch.y,
                         batch.s, cfg.eta, cfg.eta_phi, cfg.lambda1, cfg.lambda_adv)
        np.testing.assert_array_equal(u.delta_theta_f,
                                      manual.theta_f - self.params.theta_f)

    def test_client_diverging_after_its_first_step_leaves_inputs_untouched(self):
        # eta = 1e300 gives a finite first step and a non-finite second one
        shard = self.shards[0]
        phi = self.params.phi + 0.5
        before = (self.params.theta_f.copy(), self.params.theta_e.copy(),
                  self.params.phi.copy(), phi.copy())
        with np.errstate(over="ignore", invalid="ignore"):
            client_round(self.params, phi, shard, tiny_config(local_iterations=1, eta=1e300),
                         client_rng(0, 0, 0), *workspace(self.params.spec))
        with pytest.raises(FloatingPointError):
            client_round(self.params, phi, shard, tiny_config(local_iterations=3, eta=1e300),
                         client_rng(0, 0, 0), *workspace(self.params.spec))
        after = (self.params.theta_f, self.params.theta_e, self.params.phi, phi)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def assert_same_round(self, a, b):
        (ua, phi_a, loss_a), (ub, phi_b, loss_b) = a, b
        np.testing.assert_array_equal(ua.delta_theta_f, ub.delta_theta_f)
        np.testing.assert_array_equal(ua.delta_theta_e, ub.delta_theta_e)
        np.testing.assert_array_equal(phi_a, phi_b)
        assert (ua.ufm, ua.sample_count, loss_a) == (ub.ufm, ub.sample_count, loss_b)

    def test_workspace_reused_after_a_client_diverges_mid_round(self):
        spec = self.params.spec
        work = workspace(spec)
        # client A: eta = 1e300 gives a finite first step and a raising later one
        phi_a = self.params.phi + 0.5
        phi_a_before = phi_a.copy()
        with pytest.raises(FloatingPointError):
            client_round(self.params, phi_a, self.shards[0],
                         tiny_config(local_iterations=3, eta=1e300),
                         client_rng(0, 0, 0), *work)
        np.testing.assert_array_equal(phi_a, phi_a_before)
        assert not np.array_equal(work[0].theta_f, self.params.theta_f)  # left stepped
        # client B on the dirty workspace and on a fresh one
        cfg = tiny_config()
        reused = client_round(self.params, self.params.phi, self.shards[1], cfg,
                              client_rng(0, 1, 0), *work)
        fresh = client_round(self.params, self.params.phi, self.shards[1], cfg,
                             client_rng(0, 1, 0), *workspace(spec))
        self.assert_same_round(reused, fresh)

    def test_workspace_contents_on_entry_are_never_read(self):
        cfg = tiny_config()
        fresh = client_round(self.params, self.params.phi, self.shards[0], cfg,
                             client_rng(0, 0, 0), *workspace(self.params.spec))
        params, grads = workspace(self.params.spec)
        params.flat[:] = np.nan
        grads.flat[:] = np.nan
        dirty = client_round(self.params, self.params.phi, self.shards[0], cfg,
                             client_rng(0, 0, 0), params, grads)
        self.assert_same_round(dirty, fresh)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            client_round(self.params, self.params.phi, self.shards[0][:0],
                         tiny_config(), client_rng(0, 0, 0), *workspace(self.params.spec))

    def test_shard_ufm_finite_on_garbage_params(self):
        bad = ParameterSet(self.params.spec,
                           np.full_like(self.params.theta_f, 1e300),
                           np.full_like(self.params.theta_e, 1e300),
                           self.params.phi.copy())
        v = shard_ufm(bad, self.shards[0])
        assert math.isfinite(v)
        assert 0.0 <= v <= self.params.spec.num_groups


class TestAggregators:
    def test_fedavg_weighted_mean(self):
        ups = [mk_update(0, [4.0], [0.0], n=1), mk_update(1, [0.0], [8.0], n=3)]
        df, de = aggregate_fedavg(ups)
        assert df[0] == pytest.approx(1.0, abs=1e-15)
        assert de[0] == pytest.approx(6.0, abs=1e-15)

    def test_fedavg_identical_updates_passthrough(self):
        ups = [mk_update(i, [2.0, -1.0], [0.5], n=7) for i in range(3)]
        df, de = aggregate_fedavg(ups)
        np.testing.assert_allclose(df, [2.0, -1.0], rtol=1e-15)
        np.testing.assert_allclose(de, [0.5], rtol=1e-15)

    def resfl_setup(self):
        net = NetworkSpec(input_dim=2, hidden_dims=(2,), num_classes=2, num_groups=2)
        params = init_params(net, np.random.default_rng(0))
        return net, params

    def test_resfl_hand_value(self):
        _, params = self.resfl_setup()
        nf, ne = len(params.theta_f), len(params.theta_e)
        ups = [mk_update(0, np.full(nf, 2.0), np.zeros(ne), ufm=0.0),
               mk_update(1, np.full(nf, 2.0), np.zeros(ne), ufm=1.0)]
        # eta_srv=0.5: 0.5 * (1*2 + 0.5*2) = 1.5
        out = aggregate_resfl(params, ups, server_lr=0.5)
        np.testing.assert_allclose(out.theta_f - params.theta_f, 1.5, rtol=1e-15)
        np.testing.assert_array_equal(out.theta_e, params.theta_e)

    def test_resfl_bit_identical_to_fedavg_when_fair(self):
        _, params = self.resfl_setup()
        nf, ne = len(params.theta_f), len(params.theta_e)
        rng = np.random.default_rng(3)
        ups = [mk_update(i, rng.standard_normal(nf), rng.standard_normal(ne),
                         ufm=0.0, n=10) for i in range(4)]
        out = aggregate_resfl(params, ups, server_lr=0.25)
        df, de = aggregate_fedavg(ups)
        assert np.array_equal(out.theta_f, params.theta_f + df)
        assert np.array_equal(out.theta_e, params.theta_e + de)

    def test_resfl_weight_linearity(self):
        _, params = self.resfl_setup()
        nf, ne = len(params.theta_f), len(params.theta_e)
        up = mk_update(0, np.ones(nf), np.ones(ne), ufm=0.5)
        one = aggregate_resfl(params, [up], server_lr=1.0)
        two = aggregate_resfl(params, [up, up], server_lr=1.0)
        np.testing.assert_allclose(two.theta_f - params.theta_f,
                                   2.0 * (one.theta_f - params.theta_f), rtol=1e-12)

    def test_empty_updates_rejected(self):
        _, params = self.resfl_setup()
        with pytest.raises(ValueError):
            aggregate_fedavg([])
        with pytest.raises(ValueError):
            aggregate_resfl(params, [], 1.0)


class TestApplyDp:
    def test_clip_only_halves_long_update(self):
        u = mk_update(0, [3.0, 0.0], [0.0, 4.0])  # norm 5
        out = apply_dp(u, clip=2.5, noise_scale=0.0, rng=np.random.default_rng(0))
        np.testing.assert_allclose(out.delta_theta_f, [1.5, 0.0], rtol=1e-15)
        np.testing.assert_allclose(out.delta_theta_e, [0.0, 2.0], rtol=1e-15)

    def test_short_update_untouched_without_noise(self):
        u = mk_update(0, [0.1, 0.0], [0.0, 0.1])
        out = apply_dp(u, clip=10.0, noise_scale=0.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.delta_theta_f, u.delta_theta_f)

    def test_noise_statistics(self):
        # Monte-Carlo oracle: mean ~ clipped delta, std ~ noise_scale * clip
        u = mk_update(0, np.zeros(3), np.zeros(3))
        rng = np.random.default_rng(0)
        draws = np.stack([
            np.concatenate([(o := apply_dp(u, 1.0, 0.5, rng)).delta_theta_f,
                            o.delta_theta_e])
            for _ in range(4000)])
        assert abs(draws.mean()) < 0.02
        assert draws.std() == pytest.approx(0.5, rel=0.05)

    def test_dp_noise_deterministic_by_rng(self):
        u = mk_update(0, [1.0], [2.0])
        a = apply_dp(u, 1.0, 0.3, np.random.default_rng(42))
        b = apply_dp(u, 1.0, 0.3, np.random.default_rng(42))
        np.testing.assert_array_equal(a.delta_theta_f, b.delta_theta_f)

    def test_bad_args(self):
        u = mk_update(0, [1.0], [1.0])
        with pytest.raises(ValueError):
            apply_dp(u, 0.0, 0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            apply_dp(u, 1.0, -0.1, np.random.default_rng(0))


class TestRunExperiment:
    def test_zero_rounds(self):
        data, shards = tiny_data()
        params, records = run_experiment(tiny_config(rounds=0), shards, data)
        assert records == []
        ref = init_params(params.spec, np.random.default_rng([0, 0x1217]))
        np.testing.assert_array_equal(params.theta_f, ref.theta_f)

    def test_deterministic_end_to_end(self):
        data, shards = tiny_data()
        cfg = tiny_config(rounds=3)
        pa, ra = run_experiment(cfg, shards, data)
        pb, rb = run_experiment(cfg, shards, data)
        np.testing.assert_array_equal(pa.theta_f, pb.theta_f)
        assert [r.accuracy for r in ra] == [r.accuracy for r in rb]
        assert ra[-1].ufm_by_client == rb[-1].ufm_by_client

    def test_single_client_fedavg_replays_centralized_sgd(self):
        data, _ = tiny_data()
        cfg = tiny_config(num_clients=1, rounds=1, local_iterations=4,
                          aggregator="fedavg", server_lr=1.0)
        params, _ = run_experiment(cfg, [data], data)
        # replay: one client, full-weight aggregation == its local endpoint
        net = params.spec
        start = init_params(net, np.random.default_rng([0, 0x1217]))
        manual, _, _ = client_round(start, start.phi, data, cfg, client_rng(0, 0, 0),
                                    *workspace(net))
        np.testing.assert_array_equal(params.theta_f,
                                      start.theta_f + manual.delta_theta_f)
        np.testing.assert_array_equal(params.theta_e,
                                      start.theta_e + manual.delta_theta_e)

    def test_round_records_report_weights(self):
        data, shards = tiny_data()
        _, records = run_experiment(tiny_config(), shards, data)
        for r in records:
            assert set(r.ufm_by_client) == {0, 1}
            for cid, v in r.ufm_by_client.items():
                assert r.omega_by_client[cid] == pytest.approx(1.0 / (1.0 + v))

    def test_shard_count_mismatch_rejected(self):
        data, shards = tiny_data()
        with pytest.raises(ValueError):
            run_experiment(tiny_config(num_clients=3), shards, data)

    def test_all_dropped_round_is_recorded_frozen_and_ends_the_run(self):
        data, shards = tiny_data()
        cfg = tiny_config(rounds=4, eta=1e300)
        params, recs = run_experiment(cfg, shards, data)
        assert len(recs) < cfg.rounds
        last = recs[-1]
        assert last.dropped_clients == (0, 1)
        assert last.ufm_by_client == {} and last.omega_by_client == {}
        assert math.isnan(last.loss_task) and math.isnan(last.loss_adversary)
        assert 0.0 <= last.accuracy <= 1.0
        assert np.all(np.isfinite(params.theta_f))
        _, no_eval = run_experiment(cfg, shards, None)
        assert [r.round for r in no_eval] == [r.round for r in recs]
        assert math.isnan(no_eval[-1].accuracy) and no_eval[-1].acc_by_group == ()

    def test_byzantine_empty_or_zero_scale_is_clean(self):
        data, shards = tiny_data()
        cfg = tiny_config(rounds=2, aggregator="fedavg")
        clean, _ = run_experiment(cfg, shards, data)
        none, _ = run_experiment(cfg, shards, data,
                                 byzantine=ByzantineSpec(client_ids=()))
        zero, _ = run_experiment(cfg, shards, data,
                                 byzantine=ByzantineSpec(client_ids=(0,), scale=0.0))
        np.testing.assert_array_equal(clean.theta_f, none.theta_f)
        np.testing.assert_array_equal(clean.theta_f, zero.theta_f)

    def test_byzantine_noise_changes_model_and_reports_ufm(self):
        data, shards = tiny_data()
        cfg = tiny_config(rounds=2, aggregator="fedavg")
        clean, _ = run_experiment(cfg, shards, data)
        hit, recs = run_experiment(cfg, shards, data,
                                   byzantine=ByzantineSpec(client_ids=(0,), scale=5.0))
        assert not np.array_equal(clean.theta_f, hit.theta_f)
        assert all(math.isfinite(r.ufm_by_client[0]) for r in recs)

    def test_fedavg_dp_runs_and_differs_from_fedavg(self):
        data, shards = tiny_data()
        plain, _ = run_experiment(tiny_config(aggregator="fedavg"), shards, data)
        noisy, _ = run_experiment(
            tiny_config(aggregator="fedavg_dp", dp_epsilon=1.0, dp_clip=1.0),
            shards, data)
        assert not np.array_equal(plain.theta_f, noisy.theta_f)


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
        run_experiment(cfg, shards, data, byzantine=ByzantineSpec(client_ids=(1,)))
        R, K, L = cfg.rounds, cfg.num_clients, cfg.local_iterations
        e = 1 + 1  # evaluation plus one Byzantine client
        assert counts == {
            "local_train_step": R * K * L,
            "forward_batch": 2 * R * K * L + R * K + R * e,
            "group_uncertainties": R * K + R * e,
        }
