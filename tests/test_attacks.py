"""Attack harnesses at desk scale: thresholds, zero cases, determinism."""

from dataclasses import fields, replace

import numpy as np
import pytest

from resfl_sim import attacks
from resfl_sim.adversarial import local_train_step
from resfl_sim.attacks import (
    LAMBDA1,
    _best_threshold,
    aia_run,
    byzantine_clients,
    byzantine_run,
    mia_pools,
    mia_run,
    mia_threshold,
    poisoned_shards,
    poisoning_run,
)
from resfl_sim.datasets import generate_dataset, partition
from resfl_sim.config import ExperimentConfig
from resfl_sim.federation import ByzantineSpec, RoundRecord, initial_params, \
    run_experiment
from probe import probe_accuracy

# the data and network of these tests: 8 features, 40 samples per group
SMALL = ExperimentConfig(seeds=(0,), input_dim=8, samples_per_group=(40,) * 4)


def small_dataset(seed=0, per_group=40, **kw):
    return generate_dataset(replace(SMALL, samples_per_group=(per_group,) * 4, **kw),
                            seed=seed)


def one_client_config(steps, batch_size, eta) -> ExperimentConfig:
    """A 1-client, 1-round plain evidential SGD cell (no adversary), the
    shape of the MIA models."""
    return replace(SMALL, num_clients=1, rounds=1, local_iterations=steps,
                   batch_size=batch_size, eta=eta, lambda1=LAMBDA1, lambda_adv=0.0,
                   server_lr=1.0)


def train_one_client(samples, steps, batch_size, eta, seed):
    params, _ = run_experiment(one_client_config(steps, batch_size, eta), "fedavg", seed,
                               [samples], None)
    return params


class TestProbe:
    def test_separable_blobs_perfect(self):
        rng = np.random.default_rng(0)
        X0 = rng.standard_normal((50, 3)) + [8, 0, 0]
        X1 = rng.standard_normal((50, 3)) - [8, 0, 0]
        X = np.vstack([X0, X1])
        y = np.array([0] * 50 + [1] * 50)
        assert probe_accuracy(X, y, X, y, 2) == 1.0

    def test_pure_noise_near_chance(self):
        rng = np.random.default_rng(1)
        Xtr, Xte = rng.standard_normal((400, 5)), rng.standard_normal((400, 5))
        ytr, yte = rng.integers(0, 2, 400), rng.integers(0, 2, 400)
        assert probe_accuracy(Xtr, ytr, Xte, yte, 2) == pytest.approx(0.5, abs=0.08)


class TestThreshold:
    def test_separated_confidences(self):
        tau = _best_threshold(np.array([0.9, 0.95, 0.99]), np.array([0.5, 0.6]))
        assert 0.6 < tau <= 0.9

    def test_constant_confidences_give_half(self):
        m = np.full(10, 0.8)
        n = np.full(10, 0.8)
        tau = _best_threshold(m, n)
        acc = 0.5 * (np.mean(m >= tau) + np.mean(n < tau))
        assert acc == pytest.approx(0.5)


class TestOneClientTraining:
    def test_deterministic(self):
        data = small_dataset()
        a = train_one_client(data, steps=20, batch_size=16, eta=0.05, seed=3)
        b = train_one_client(data, steps=20, batch_size=16, eta=0.05, seed=3)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_learns_separable_data(self):
        data = small_dataset(noise_std=0.3)
        params = train_one_client(data, steps=300, batch_size=32,
                                  eta=0.1, seed=0)
        from resfl_sim.evidential import evidence_batch
        from resfl_sim.network import forward_batch
        preds = np.argmax(evidence_batch(forward_batch(params, data.X)[3]), axis=1)
        assert np.mean(preds == data.y) > 0.9


class TestMia:
    def test_overfit_target_leaks_membership(self):
        data = small_dataset(per_group=200)
        rng = np.random.default_rng([0, 0x517A])
        order = rng.permutation(len(data))
        members = data[order[:30]]
        nonmembers = data[order[30:60]]
        shadow = data[order[60:460]]
        split = np.random.default_rng([0, 0x314]).permutation(len(shadow))
        shadow_members, shadow_nonmembers = shadow[split[:30]], shadow[split[30:]]
        target = train_one_client(members, steps=3000, batch_size=32,
                                  eta=0.1, seed=0)
        shadow_model = train_one_client(shadow_members, steps=3000, batch_size=32,
                                        eta=0.1, seed=0)
        tau = mia_threshold(shadow_model, shadow_members, shadow_nonmembers)
        report = mia_run(target, members, nonmembers, tau)
        assert report.score > 0.6

    def test_empty_pools_rejected(self):
        data = small_dataset()
        target = train_one_client(data[:10], steps=1, batch_size=4,
                                  eta=0.01, seed=0)
        with pytest.raises(ValueError):
            mia_run(target, data[:0], data[:5], 0.5)
        with pytest.raises(ValueError):
            mia_run(target, data[:5], data[:0], 0.5)

    def test_degenerate_target_scores_nan(self):
        # evidence (inf, 1) has no finite Dirichlet mean, so no confidence
        data = small_dataset()
        target = initial_params(SMALL.network(), 0)
        target.task_head[1][:] = (np.inf, -np.inf)
        report = mia_run(target, data[:10], data[10:20], 0.5)
        assert np.isnan(report.score)

    def test_pools_are_seeded_draws_and_the_shadow_split_matches_the_members(self):
        train, test = small_dataset(per_group=150), small_dataset(seed=1)
        cfg = replace(SMALL, mia_overfit_size=30)
        members, nonmembers, shadow_members, shadow_nonmembers = \
            mia_pools(cfg, train, test, 4)
        order = np.random.default_rng([4, 0x517A]).permutation(len(train))
        draw = np.random.default_rng([4, 0x4E4D]).permutation(len(test))
        np.testing.assert_array_equal(members.X, train.X[order[:30]])
        np.testing.assert_array_equal(nonmembers.X, test.X[draw[:30]])
        # the shadow pool is the next 400 training samples, split 30 / 370
        pool = np.sort(train.X[order[30:430]], axis=0)
        shadow = np.concatenate([shadow_members.X, shadow_nonmembers.X])
        assert (len(shadow_members), len(shadow_nonmembers)) == (30, 370)
        np.testing.assert_array_equal(np.sort(shadow, axis=0), pool)
        # a pool smaller than twice the members caps the shadow at half of it
        small = mia_pools(cfg, train[:50], test, 4)
        assert (len(small[2]), len(small[3])) == (10, 10)


class TestAia:
    def test_full_leak_far_above_chance(self):
        data = small_dataset(attr_leak=1.0)
        params = train_one_client(data, steps=50, batch_size=32,
                                  eta=0.05, seed=0)
        report = aia_run(replace(SMALL, aia_trials=60), params, data, seed=0)
        assert report.score > 0.5

    def test_zero_leak_near_chance(self):
        data = small_dataset(attr_leak=0.0, per_group=100)
        params = train_one_client(data, steps=50, batch_size=32,
                                  eta=0.05, seed=0)
        report = aia_run(replace(SMALL, aia_trials=100), params, data, seed=0)
        assert report.score == pytest.approx(0.25, abs=0.15)

    def test_global_params_not_modified(self):
        data = small_dataset()
        params = train_one_client(data, steps=5, batch_size=16,
                                  eta=0.05, seed=0)
        before = params.copy()
        aia_run(replace(SMALL, aia_trials=5), params, data, seed=0)
        np.testing.assert_array_equal(params.flat, before.flat)

    def test_degenerate_model_scores_nan(self):
        # the probe step's losses overflow, which the probe's check reports
        data = small_dataset()
        params = initial_params(SMALL.network(), 0)
        params.theta[:] = 1e300
        report = aia_run(replace(SMALL, aia_trials=5), params, data, seed=0)
        assert np.isnan(report.score) and report.auxiliary == {"trials": 5}

    def test_empty_group_is_neither_signature_nor_target(self, monkeypatch):
        # a group without samples has no probe batch: the attack infers
        # among the other three, so its chance is 1/3
        data = small_dataset()
        data = data[data.s != 2]
        params = train_one_client(data, steps=1, batch_size=8,
                                  eta=0.01, seed=0)
        probed = []

        def recording(params, grads, X, *args):
            probed.append(args[1][0])  # the pure batch's group
            return local_train_step(params, grads, X, *args)

        monkeypatch.setattr(attacks, "local_train_step", recording)
        report = aia_run(replace(SMALL, aia_trials=30), params, data, seed=0)
        assert 0.0 <= report.score <= 1.0
        assert probed[:3] == [0, 1, 3] and len(probed) == 3 + 30
        assert set(probed) == {0, 1, 3}


def assert_runs_identical(run, other):
    """Bit for bit: the parameters and every RoundRecord field, NaN-aware."""
    np.testing.assert_array_equal(run[0].flat, other[0].flat)
    assert len(run[1]) == len(other[1])
    for record, other_record in zip(run[1], other[1]):
        for f in fields(RoundRecord):
            np.testing.assert_array_equal(getattr(record, f.name),
                                          getattr(other_record, f.name), err_msg=f.name)


def record(accuracy=0.5, eod=0.1) -> RoundRecord:
    return RoundRecord(0, accuracy, (accuracy,) * 4, 0.0, 0.0, eod, 0.0,
                       np.zeros(2), np.zeros((2, 3)))


class TestByzantineAndPoisoning:
    def setup_method(self):
        self.data = small_dataset()
        self.shards = partition(self.data, 2, beta=0.5, seed=0)
        self.cfg = replace(SMALL, num_clients=2, rounds=2, local_iterations=3,
                           batch_size=16, eta=0.01, poison_group=3)
        self.clean = run_experiment(self.cfg, "fedavg", 0, self.shards, self.data)

    def attack(self, run, **settings):
        cfg = replace(self.cfg, **settings)
        if run is byzantine_run:
            byzantine = byzantine_clients(cfg, self.shards)
            attacked = run_experiment(cfg, "fedavg", 0, self.shards, self.data, byzantine)
            return byzantine_run(self.clean[1], attacked[1], byzantine)
        poisoned = run_experiment(cfg, "fedavg", 0, poisoned_shards(cfg, self.shards, 0),
                                  self.data)
        return poisoning_run(self.clean[1], poisoned[1], cfg.poison_rate)

    def test_byzantine_zero_fraction_zero_degradation(self):
        report = self.attack(byzantine_run, byzantine_fraction=0.0, byzantine_scale=10.0)
        assert report.score == 0.0
        assert report.auxiliary["num_malicious"] == 0.0

    def test_byzantine_zero_scale_zero_degradation(self):
        report = self.attack(byzantine_run, byzantine_fraction=0.5, byzantine_scale=0.0)
        assert report.score == 0.0

    def test_byzantine_targets_largest_shard(self):
        report = self.attack(byzantine_run, byzantine_fraction=0.5, byzantine_scale=5.0)
        assert report.auxiliary["num_malicious"] == 1.0
        assert report.auxiliary["clean_accuracy"] != report.auxiliary["attacked_accuracy"]

    def test_poisoning_zero_rate_zero_shift(self):
        report = self.attack(poisoning_run, poison_rate=0.0)
        assert report.score == 0.0

    def test_poisoning_nonzero_rate_changes_model(self):
        report = self.attack(poisoning_run, poison_rate=0.3)
        assert report.auxiliary["eod_clean"] != report.auxiliary["eod_poisoned"]

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedavg_dp", "resfl"])
    def test_null_attacks_train_the_clean_cell(self, algorithm):
        # each null setting leaves the attacked cell the clean one, so no
        # command needs a stand-in for it
        clean = run_experiment(self.cfg, algorithm, 0, self.shards, self.data)
        for fraction, scale in ((0.0, 10.0), (0.5, 0.0)):
            cfg = replace(self.cfg, byzantine_fraction=fraction, byzantine_scale=scale)
            byzantine = byzantine_clients(cfg, self.shards)
            attacked = run_experiment(cfg, algorithm, 0, self.shards, self.data, byzantine)
            assert_runs_identical(attacked, clean)
        cfg = replace(self.cfg, poison_rate=0.0)
        poisoned = poisoned_shards(cfg, self.shards, 0)
        assert_runs_identical(run_experiment(cfg, algorithm, 0, poisoned, self.data), clean)

    def test_byzantine_clients_are_the_largest_shards_ties_to_the_lower_index(self):
        shards = [self.data[:n] for n in (5, 9, 7, 9)]
        cfg = replace(self.cfg, num_clients=4, byzantine_fraction=0.5,
                      byzantine_scale=3.0)
        assert byzantine_clients(cfg, shards) == ByzantineSpec((1, 3), 3.0)
        assert byzantine_clients(replace(cfg, byzantine_fraction=0.25), shards) \
            == ByzantineSpec((1,), 3.0)
        assert byzantine_clients(replace(cfg, byzantine_fraction=0.0), shards) \
            == ByzantineSpec((), 3.0)

    def test_poisoned_shards_poison_only_the_victim(self):
        cfg = replace(self.cfg, poison_rate=0.3)
        victim = int(np.argmax([np.count_nonzero(sh.s == 3) for sh in self.shards]))
        poisoned = poisoned_shards(cfg, self.shards, 0)
        assert [sh is orig for sh, orig in zip(poisoned, self.shards)] \
            == [k != victim for k in range(2)]
        assert len(poisoned[victim]) == len(self.shards[victim]) + round(
            0.3 * len(self.shards[victim]))

    def test_byzantine_score_on_hand_built_records(self):
        report = byzantine_run([record(0.1), record(0.75)], [record(0.9), record(0.5)],
                               ByzantineSpec((0, 2), 4.0))
        assert report.score == 0.75 - 0.5
        assert report.auxiliary == {"clean_accuracy": 0.75, "attacked_accuracy": 0.5,
                                    "num_malicious": 2.0}

    def test_poisoning_score_on_hand_built_records(self):
        report = poisoning_run([record(eod=0.5), record(eod=0.125)],
                               [record(eod=0.0), record(eod=0.375)], 0.2)
        assert report.score == 0.375 - 0.125
        assert report.auxiliary == {"eod_clean": 0.125, "eod_poisoned": 0.375,
                                    "rate": 0.2}
