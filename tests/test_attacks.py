"""Attack harnesses at desk scale: thresholds, zero cases, determinism."""

import numpy as np
import pytest

from resfl_sim.attacks import (
    _best_threshold,
    aia_run,
    byzantine_run,
    mia_run,
    mia_threshold,
    poisoning_run,
    train_centralized,
)
from resfl_sim.datasets import SynthSpec, generate_dataset, partition
from resfl_sim.config import ExperimentConfig
from resfl_sim.federation import run_experiment
from resfl_sim.network import NetworkSpec
from probe import probe_accuracy


def small_dataset(seed=0, per_group=40, **kw):
    spec = SynthSpec(input_dim=8, samples_per_group=(per_group,) * 4, **kw)
    return generate_dataset(spec, seed=seed)


def net8():
    return NetworkSpec(input_dim=8, hidden_dims=(32, 32), num_classes=2, num_groups=4)


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


class TestTrainCentralized:
    def test_deterministic(self):
        data = small_dataset()
        a = train_centralized(data, net8(), steps=20, batch_size=16, eta=0.05, seed=3)
        b = train_centralized(data, net8(), steps=20, batch_size=16, eta=0.05, seed=3)
        np.testing.assert_array_equal(a.theta_f, b.theta_f)
        np.testing.assert_array_equal(a.theta_e, b.theta_e)

    def test_learns_separable_data(self):
        data = small_dataset(noise_std=0.3)
        params = train_centralized(data, net8(), steps=300, batch_size=32,
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
        target = train_centralized(members, net8(), steps=3000, batch_size=32,
                                   eta=0.1, seed=0)
        tau = mia_threshold(net8(), len(members), shadow, seed=0, shadow_steps=3000)
        report = mia_run(target, members, nonmembers, tau)
        assert report.score > 0.6

    def test_empty_pools_rejected(self):
        data = small_dataset()
        target = train_centralized(data[:10], net8(), steps=1, batch_size=4,
                                   eta=0.01, seed=0)
        with pytest.raises(ValueError):
            mia_run(target, data[:0], data[:5], 0.5)
        with pytest.raises(ValueError):
            mia_run(target, data[:5], data[:0], 0.5)

    def test_small_shadow_pool_rejected(self):
        data = small_dataset()
        with pytest.raises(ValueError):
            mia_threshold(net8(), 5, data[:3], seed=0, shadow_steps=10)
        with pytest.raises(ValueError):
            mia_threshold(net8(), 0, data[:20], seed=0, shadow_steps=10)


class TestAia:
    def test_full_leak_far_above_chance(self):
        data = small_dataset(attr_leak=1.0)
        params = train_centralized(data, net8(), steps=50, batch_size=32,
                                   eta=0.05, seed=0)
        report = aia_run(params, data, num_groups=4, seed=0, trials=60)
        assert report.score > 0.5

    def test_zero_leak_near_chance(self):
        data = small_dataset(attr_leak=0.0, per_group=100)
        params = train_centralized(data, net8(), steps=50, batch_size=32,
                                   eta=0.05, seed=0)
        report = aia_run(params, data, num_groups=4, seed=0, trials=100)
        assert report.score == pytest.approx(0.25, abs=0.15)

    def test_global_params_not_modified(self):
        data = small_dataset()
        params = train_centralized(data, net8(), steps=5, batch_size=16,
                                   eta=0.05, seed=0)
        before = params.copy()
        aia_run(params, data, num_groups=4, seed=0, trials=5)
        for segment in ("theta_f", "theta_e", "phi"):
            np.testing.assert_array_equal(getattr(params, segment),
                                          getattr(before, segment))

    def test_missing_group_rejected(self):
        data = small_dataset()
        data = data[data.s != 2]
        params = train_centralized(data, net8(), steps=1, batch_size=8,
                                   eta=0.01, seed=0)
        with pytest.raises(ValueError):
            aia_run(params, data, num_groups=4, seed=0, trials=5)


class TestByzantineAndPoisoning:
    def setup_method(self):
        self.data = small_dataset()
        self.shards = partition(self.data, 2, beta=0.5, seed=0)
        self.cfg = ExperimentConfig(
            seeds=(0,), num_clients=2, rounds=2, local_iterations=3, batch_size=16,
            eta=0.01).federation_config("fedavg", 0)
        self.clean = run_experiment(self.cfg, self.shards, self.data, net8())

    def test_byzantine_zero_fraction_zero_degradation(self):
        report = byzantine_run(self.cfg, self.shards, self.data, self.clean,
                               malicious_fraction=0.0, perturb_scale=10.0)
        assert report.score == 0.0
        assert report.auxiliary["num_malicious"] == 0.0

    def test_byzantine_zero_scale_zero_degradation(self):
        report = byzantine_run(self.cfg, self.shards, self.data, self.clean,
                               malicious_fraction=0.5, perturb_scale=0.0)
        assert report.score == 0.0

    def test_byzantine_targets_largest_shard(self):
        report = byzantine_run(self.cfg, self.shards, self.data, self.clean,
                               malicious_fraction=0.5, perturb_scale=5.0)
        assert report.auxiliary["num_malicious"] == 1.0
        assert report.auxiliary["clean_accuracy"] != report.auxiliary["attacked_accuracy"]

    def test_poisoning_zero_rate_zero_shift(self):
        report = poisoning_run(self.cfg, self.shards, self.data, self.clean,
                               target_group=3, rate=0.0)
        assert report.score == 0.0

    def test_poisoning_nonzero_rate_changes_model(self):
        report = poisoning_run(self.cfg, self.shards, self.data, self.clean,
                               target_group=3, rate=0.3)
        assert report.auxiliary["eod_clean"] != report.auxiliary["eod_poisoned"]
