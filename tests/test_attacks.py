"""Attack harnesses at desk scale: thresholds, zero cases, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from resfl_sim import attacks
from resfl_sim.adversarial import local_train_step
from resfl_sim.attacks import (
    LAMBDA1,
    _best_threshold,
    aia_run,
    byzantine_run,
    mia_run,
    mia_threshold,
    poisoning_run,
)
from resfl_sim.datasets import generate_dataset, partition
from resfl_sim.config import ExperimentConfig
from resfl_sim.federation import initial_params, run_experiment
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
        target = train_one_client(members, steps=3000, batch_size=32,
                                  eta=0.1, seed=0)
        tau = mia_threshold(one_client_config(3000, 32, 0.1), 0, len(members), shadow)
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

    def test_small_shadow_pool_rejected(self):
        data = small_dataset()
        with pytest.raises(ValueError):
            mia_threshold(one_client_config(10, 32, 0.1), 0, 5, data[:3])
        with pytest.raises(ValueError):
            mia_threshold(one_client_config(10, 32, 0.1), 0, 0, data[:20])


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


class TestByzantineAndPoisoning:
    def setup_method(self):
        self.data = small_dataset()
        self.shards = partition(self.data, 2, beta=0.5, seed=0)
        self.cfg = replace(SMALL, num_clients=2, rounds=2, local_iterations=3,
                           batch_size=16, eta=0.01, poison_group=3)
        self.clean = run_experiment(self.cfg, "fedavg", 0, self.shards, self.data)

    def attack(self, run, **settings):
        return run(replace(self.cfg, **settings), "fedavg", 0, self.shards, self.data,
                   self.clean)

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
