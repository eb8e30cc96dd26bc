"""Synthetic data generation, partitioning, poisoning."""

import numpy as np
import pytest
from scipy import stats

from oracles import reference_generate_dataset
from resfl_sim.datasets import (
    PARTITION_TRIES,
    SynthSpec,
    generate_dataset,
    partition,
    poison,
)
from resfl_sim.metrics import FAVORABLE_CLASS
from probe import probe_accuracy


def probe_on(samples, train_frac=0.7, seed=0, target="s"):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    cut = int(train_frac * len(samples))
    shuffled = samples[order]
    X, y, s = shuffled.X, shuffled.y, shuffled.s
    t = s if target == "s" else y
    k = int(t.max()) + 1
    return probe_accuracy(X[:cut], t[:cut], X[cut:], t[cut:], k)


def same_rows(a, b):
    return (np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
            and np.array_equal(a.s, b.s))


class TestGeneration:
    def test_deterministic(self):
        spec = SynthSpec(samples_per_group=(50, 50, 50, 50))
        a = generate_dataset(spec, seed=3)
        b = generate_dataset(spec, seed=3)
        assert len(a) == len(b) == 200
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.s, b.s)

    def test_different_seeds_differ(self):
        spec = SynthSpec(samples_per_group=(50, 50, 50, 50))
        a = generate_dataset(spec, seed=3)
        b = generate_dataset(spec, seed=4)
        assert not np.array_equal(a.X[0], b.X[0])

    def test_exact_group_counts(self):
        spec = SynthSpec(samples_per_group=(2000, 1500, 1000, 500))
        data = generate_dataset(spec, seed=0)
        counts = np.bincount(data.s, minlength=4)
        np.testing.assert_array_equal(counts, [2000, 1500, 1000, 500])

    def test_labels_and_groups_in_range(self):
        spec = SynthSpec(samples_per_group=(100, 100, 100, 100))
        data = generate_dataset(spec, seed=1)
        assert np.all((0 <= data.y) & (data.y < spec.num_classes))
        assert np.all((0 <= data.s) & (data.s < spec.num_groups))

    def test_noiseless_data_linearly_separable(self):
        spec = SynthSpec(samples_per_group=(200, 200, 200, 200), noise_std=0.0,
                         attr_leak=0.0)
        data = generate_dataset(spec, seed=0)
        assert probe_on(data, target="y") == 1.0

    def test_zero_leak_probe_near_chance(self):
        spec = SynthSpec(samples_per_group=(500, 500, 500, 500), attr_leak=0.0)
        data = generate_dataset(spec, seed=0)
        assert probe_on(data, target="s") == pytest.approx(0.25, abs=0.05)

    def test_full_leak_probe_near_perfect(self):
        spec = SynthSpec(samples_per_group=(500, 500, 500, 500), attr_leak=1.0)
        data = generate_dataset(spec, seed=0)
        assert probe_on(data, target="s") > 0.95

    def test_label_flip_noise_caps_accuracy(self):
        clean = SynthSpec(samples_per_group=(400, 400, 400, 400), noise_std=0.2)
        noisy = SynthSpec(samples_per_group=(400, 400, 400, 400), noise_std=0.2,
                          label_flip_noise=(0.4, 0.4, 0.4, 0.4))
        acc_clean = probe_on(generate_dataset(clean, seed=0), target="y")
        acc_noisy = probe_on(generate_dataset(noisy, seed=0), target="y")
        assert acc_noisy < acc_clean - 0.2

    @pytest.mark.parametrize("field, value", [
        ("noise_std", 1e308), ("group_means", ((1e308, 0.0),) * 4)])
    def test_overflowing_features_raise(self, field, value):
        # the one finiteness check of every model input
        spec = SynthSpec(input_dim=6, samples_per_group=(20,) * 4, **{field: value})
        with pytest.raises(ValueError, match="non-finite features"):
            generate_dataset(spec, seed=0)


DRAW_ORDER_SPECS = {
    "no_label_noise": SynthSpec(input_dim=6, samples_per_group=(40, 30, 20, 10)),
    "mixed_label_noise": SynthSpec(input_dim=6, samples_per_group=(40, 30, 20, 10),
                                   label_flip_noise=(0.1, 0.0, 0.2, 0.05)),
    "label_noise_everywhere": SynthSpec(input_dim=6, samples_per_group=(40, 30, 20, 10),
                                        label_flip_noise=(0.3, 0.1, 0.2, 0.4)),
    "empty_group": SynthSpec(input_dim=6, samples_per_group=(40, 0, 20, 10),
                             label_flip_noise=(0.0, 0.2, 0.1, 0.0)),
    "three_classes": SynthSpec(input_dim=6, num_classes=3,
                               samples_per_group=(40, 30, 20, 10),
                               label_flip_noise=(0.0, 0.3, 0.0, 0.1)),
    "input_dim_1": SynthSpec(input_dim=1, samples_per_group=(40, 30, 20, 10),
                             label_flip_noise=(0.0, 0.2, 0.0, 0.0)),
    "no_leak": SynthSpec(input_dim=6, samples_per_group=(40, 30, 20, 10), attr_leak=0.0),
    "every_column_leaks": SynthSpec(input_dim=6, samples_per_group=(40, 30, 20, 10),
                                    attr_leak=1.0, label_flip_noise=(0.0, 0.2, 0.0, 0.0)),
}


class TestDrawOrder:
    """One block draw per label-noise-free group uses the stream exactly
    as the row-by-row reference does."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("name", sorted(DRAW_ORDER_SPECS))
    def test_bitwise_equal_to_row_by_row_reference(self, name, seed):
        spec = DRAW_ORDER_SPECS[name]
        got = generate_dataset(spec, seed)
        ref = reference_generate_dataset(spec, seed)
        assert np.array_equal(got.X, ref.X)
        assert np.array_equal(got.y, ref.y)
        assert np.array_equal(got.s, ref.s)


class TestSpecValidation:
    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            SynthSpec(input_dim=0)
        with pytest.raises(ValueError):
            SynthSpec(num_classes=1)

    def test_mismatched_group_sizes(self):
        with pytest.raises(ValueError):
            SynthSpec(num_groups=3, samples_per_group=(10, 10))

    def test_attr_leak_range(self):
        with pytest.raises(ValueError):
            SynthSpec(attr_leak=1.5)

    def test_group_means_shape(self):
        with pytest.raises(ValueError):
            SynthSpec(group_means=((0.0,),) * 4)

    def test_label_flip_range(self):
        with pytest.raises(ValueError):
            SynthSpec(label_flip_noise=(0.5, 0.0, 0.0, 0.0))

    def test_need_two_populated_groups(self):
        with pytest.raises(ValueError):
            SynthSpec(samples_per_group=(100, 0, 0, 0))

    def test_spec_hash_distinguishes(self):
        a = SynthSpec()
        b = SynthSpec(attr_leak=0.4)
        assert a.spec_hash() != b.spec_hash()
        assert a.spec_hash() == SynthSpec().spec_hash()


class TestPartition:
    def setup_method(self):
        self.spec = SynthSpec(samples_per_group=(300, 300, 300, 300))
        self.data = generate_dataset(self.spec, seed=0)

    def test_single_client_gets_everything(self):
        shards = partition(self.data, 1, beta=0.5, seed=0)
        assert len(shards) == 1 and len(shards[0]) == len(self.data)

    def test_union_and_disjointness(self):
        shards = partition(self.data, 5, beta=0.5, seed=0)
        assert sum(len(s) for s in shards) == len(self.data)
        # every sample has a distinct feature row, so rows identify samples
        rows = np.concatenate([shard.X for shard in shards])
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert len(np.unique(np.concatenate([rows, self.data.X]), axis=0)) == len(rows)
        assert all(shards)

    def test_deterministic(self):
        a = partition(self.data, 4, beta=0.5, seed=9)
        b = partition(self.data, 4, beta=0.5, seed=9)
        assert len(a) == len(b)
        assert all(same_rows(sa, sb) for sa, sb in zip(a, b))

    def test_low_beta_is_skewed(self):
        # chi-squared against a uniform client assignment per group: at
        # beta = 0.1 the split must be decisively non-uniform
        shards = partition(self.data, 4, beta=0.1, seed=1)
        for g in range(4):
            counts = np.array([np.count_nonzero(sh.s == g) for sh in shards])
            _, p = stats.chisquare(counts)
            assert p < 1e-6

    def test_high_beta_is_balanced(self):
        shards = partition(self.data, 4, beta=1000.0, seed=1)
        sizes = np.array([len(sh) for sh in shards])
        assert sizes.max() - sizes.min() < 100

    def test_gives_up_after_partition_tries(self):
        # two samples cannot fill three shards, so every draw is rejected
        with pytest.raises(RuntimeError, match=f"in {PARTITION_TRIES} tries"):
            partition(self.data[:2], 3, beta=0.5, seed=0)


class TestPoison:
    def setup_method(self):
        spec = SynthSpec(samples_per_group=(25, 25, 25, 25))
        self.shard = generate_dataset(spec, seed=0)  # 100 samples

    def test_rate_zero_is_identity(self):
        out = poison(self.shard, target_group=1, rate=0.0, seed=0, num_classes=2)
        assert same_rows(out, self.shard)

    def test_injection_count(self):
        out = poison(self.shard, target_group=1, rate=0.1, seed=0, num_classes=2)
        assert len(out) == 110
        assert same_rows(out[:100], self.shard)

    def test_injected_samples_target_group_wrong_label(self):
        out = poison(self.shard, target_group=2, rate=0.2, seed=0, num_classes=2)
        injected = out[len(self.shard):]
        assert len(injected) == 20
        for x, y, s in zip(injected.X, injected.y, injected.s):
            assert s == 2
            assert 0 <= y < 2
            # each clone duplicates some target-group feature vector but
            # carries a different label
            twins = self.shard[(self.shard.s == 2) & np.all(self.shard.X == x, axis=1)]
            assert twins and all(t != y for t in twins.y)

    def test_clones_favorable_class_samples(self):
        target = self.shard[self.shard.s == 2]
        assert set(target.y) == {0, 1}
        out = poison(self.shard, target_group=2, rate=0.2, seed=0, num_classes=2)
        injected = out[len(self.shard):]
        assert all(y != FAVORABLE_CLASS for y in injected.y)
        for x in injected.X:
            assert target.y[np.all(target.X == x, axis=1)][0] == FAVORABLE_CLASS

    def test_whole_group_cloned_without_favorable_samples(self):
        unfavored = ~((self.shard.s == 2) & (self.shard.y == FAVORABLE_CLASS))
        shard = self.shard[unfavored]
        injected = poison(shard, target_group=2, rate=0.2, seed=0,
                          num_classes=2)[len(shard):]
        assert len(injected) == round(0.2 * len(shard))
        assert all(s == 2 for s in injected.s)
        assert all(y == FAVORABLE_CLASS for y in injected.y)

    def test_wrong_labels_drawn_from_every_class(self):
        # a three-class shard that lacks class 2: the clones of class-1
        # samples must be able to take label 2 as well as label 0
        spec = SynthSpec(num_classes=3, samples_per_group=(40, 40, 40, 40))
        data = generate_dataset(spec, seed=0)
        shard = data[data.y < 2]
        out = poison(shard, target_group=2, rate=0.3, seed=0, num_classes=3)
        injected = out[len(shard):]
        assert set(injected.y) == {0, 2}

    def test_deterministic(self):
        a = poison(self.shard, 1, 0.3, seed=5, num_classes=2)
        b = poison(self.shard, 1, 0.3, seed=5, num_classes=2)
        assert len(a) == len(b)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_missing_target_group_raises(self):
        pure = self.shard[self.shard.s == 0]
        with pytest.raises(ValueError):
            poison(pure, target_group=3, rate=0.1, seed=0, num_classes=2)
