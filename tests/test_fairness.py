"""Uncertainty fairness metric: hand values and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfl_sim.fairness import (
    DEFAULT_EPS,
    aggregation_weight,
    group_uncertainties,
    ufm,
    uncertainty_variance,
)

positive_us = st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8)


class TestGroupUncertainties:
    def test_hand_values(self):
        us = group_uncertainties(np.array([4.0, 4.0, 2.0]), np.array([0, 0, 1]), num_groups=2)
        assert isinstance(us, np.ndarray)
        assert us.tolist() == [pytest.approx(0.25), pytest.approx(0.5)]

    def test_empty_groups_omitted(self):
        us = group_uncertainties(np.array([3.0, 5.0, 1.0]), np.array([2, 0, 2]), num_groups=4)
        # group 0 (mean 5), then group 2 (mean 2); groups 1 and 3 omitted
        assert us.tolist() == [pytest.approx(0.2), pytest.approx(0.5)]

    def test_no_samples_rejected_by_ufm(self):
        # no group has samples, so no uncertainty is defined
        us = group_uncertainties(np.array([]), np.array([], dtype=int), num_groups=2)
        assert us.size == 0
        with pytest.raises(ValueError):
            ufm(us)


def running_sum_oracle(alpha0, groups, num_groups):
    """1 / mean evidence per non-empty group, in group order, summing each
    group's evidence one sample at a time in sample order."""
    sums = [0.0] * num_groups
    counts = [0] * num_groups
    for a0, g in zip(alpha0, groups):
        sums[g] += float(a0)
        counts[g] += 1
    return [1.0 / (sums[g] / counts[g]) for g in range(num_groups) if counts[g]]


class TestGroupUncertaintiesOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_running_sum(self, seed):
        # evidence spanning several orders of magnitude, so any change in
        # summation order shows up in the last bits
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2000, 6000))
        num_groups = int(rng.integers(2, 9))
        alpha0 = 2.0 + rng.lognormal(0.0, 3.0, size=n)
        groups = rng.integers(0, num_groups - 1, size=n)  # last group empty
        got = group_uncertainties(alpha0, groups, num_groups).tolist()
        assert got == running_sum_oracle(alpha0, groups, num_groups)


class TestUfmHandValues:
    def test_two_group_example(self):
        us = np.array([0.25, 0.5])
        assert uncertainty_variance(us) == pytest.approx(0.015625, abs=1e-12)
        # (0.5 - 0.25) / (0.375 + 1e-6)
        assert ufm(us) == pytest.approx(0.666665, abs=5e-6)

    def test_equal_uncertainties_zero(self):
        assert ufm(np.full(3, 0.3)) == 0.0
        assert uncertainty_variance(np.full(3, 0.3)) == 0.0

    def test_weights(self):
        assert aggregation_weight(0.0) == pytest.approx(1.0)
        assert aggregation_weight(1.0) == pytest.approx(0.5)
        assert aggregation_weight(3.0) == pytest.approx(0.25)

    def test_negative_ufm_rejected(self):
        with pytest.raises(ValueError):
            aggregation_weight(-0.1)


class TestUfmProperties:
    @given(positive_us)
    @settings(max_examples=300, deadline=None)
    def test_range_bound(self, us):
        g = len(us)
        v = ufm(np.array(us))
        assert 0.0 <= v < g

    @given(positive_us)
    @settings(max_examples=300, deadline=None)
    def test_zero_iff_all_equal(self, us):
        us = np.array(us)
        assert (ufm(us) == 0.0) == (us.max() == us.min())
        if ufm(us) == 0.0:
            # variance can carry float residue but must be negligible
            assert uncertainty_variance(us) < 1e-30

    @given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
           st.floats(0.5, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_approximate_scale_invariance(self, us, c):
        # scale-free up to eps: a and b differ by a share
        # eps |1 - c| / (c mean + eps) of a, at most 2 eps / mean for c >= 0.5
        a = ufm(np.array(us))
        b = ufm(c * np.array(us))
        assert b == pytest.approx(a, rel=2 * DEFAULT_EPS / np.mean(us), abs=1e-12)

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=6, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_weight_strictly_decreasing_in_ufm(self, grid):
        vals = sorted(v / 100.0 for v in grid)
        ws = [aggregation_weight(v) for v in vals]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    def test_large_vectorized_bound(self):
        rng = np.random.default_rng(0)
        for g in (2, 3, 8):
            us = rng.uniform(1e-4, 1.0, size=(10_000, g))
            spread = us.max(axis=1) - us.min(axis=1)
            vals = spread / (us.mean(axis=1) + DEFAULT_EPS)
            check = np.array([ufm(row) for row in us[:50]])
            np.testing.assert_allclose(check, vals[:50], rtol=1e-12)
            assert np.all(vals >= 0.0) and np.all(vals < g)
