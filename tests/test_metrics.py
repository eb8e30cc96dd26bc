"""Fairness/utility metrics and the deterministic CSV writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfl_sim.metrics import (
    DI_CAP,
    GroupConfusion,
    GroupCounts,
    MetricsRow,
    accuracy_by_group,
    confusion_by_group,
    delta_eop,
    di_deviation,
    eod,
    write_metrics,
)


def conf(*groups):
    """GroupConfusion from (tp, fp, tn, fn) tuples, group ids 0..n-1."""
    return GroupConfusion(by_group={
        g: GroupCounts(*c) for g, c in enumerate(groups)})


def labels_groups(*samples):
    """(labels, groups) arrays from (y, s) pairs."""
    y, s = zip(*samples)
    return np.array(y), np.array(s)


class TestConfusion:
    def test_hand_counts(self):
        y, s = labels_groups((1, 0), (1, 0), (0, 0), (1, 1), (0, 1))
        preds = [1, 0, 1, 1, 0]
        c = confusion_by_group(preds, y, s)
        assert c.by_group[0] == GroupCounts(tp=1, fp=1, tn=0, fn=1)
        assert c.by_group[1] == GroupCounts(tp=1, fp=0, tn=1, fn=0)

    def test_rates(self):
        c = GroupCounts(tp=3, fp=1, tn=4, fn=2)
        assert c.total == 10
        assert c.predicted_positive_rate == pytest.approx(0.4)
        assert c.tpr == pytest.approx(0.6)
        assert c.fpr == pytest.approx(0.2)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            confusion_by_group([1], *labels_groups((1, 0), (0, 0)))


class TestDiDeviation:
    def test_equal_rates_zero(self):
        v, degenerate = di_deviation(conf((2, 2, 4, 2), (1, 1, 2, 1)))
        assert v == 0.0 and not degenerate

    def test_hand_value(self):
        # rates 0.5 and 0.25 -> |1 - 0.25/0.5| = 0.5
        v, degenerate = di_deviation(conf((4, 1, 3, 2), (1, 1, 5, 1)))
        assert v == pytest.approx(0.5, abs=1e-12)
        assert not degenerate

    def test_degenerate_capped_and_flagged(self):
        v, degenerate = di_deviation(conf((0, 0, 5, 5), (0, 0, 5, 5)))
        assert v == DI_CAP and degenerate

    def test_one_sided_zero_rate(self):
        v, degenerate = di_deviation(conf((5, 0, 0, 0), (0, 0, 5, 5)))
        assert v == pytest.approx(1.0) and not degenerate

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            di_deviation(conf((1, 1, 1, 1)))


class TestEopAndEod:
    def test_delta_eop_hand_value(self):
        # TPRs 0.8 and 0.5
        assert delta_eop(conf((4, 0, 5, 1), (1, 0, 5, 1))) == pytest.approx(0.3)

    def test_delta_eop_skips_positive_free_groups(self):
        c = conf((4, 0, 5, 1), (0, 2, 3, 0), (1, 0, 5, 1))
        assert delta_eop(c) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            delta_eop(conf((4, 0, 5, 1), (0, 2, 3, 0)))

    def test_eod_hand_value(self):
        # dTPR = 0.2, dFPR = 0.1 -> 0.3
        c = conf((8, 1, 9, 2), (6, 2, 8, 4))
        assert eod(c) == pytest.approx(0.3, abs=1e-12)

    def test_eod_zero_for_identical_groups(self):
        assert eod(conf((3, 1, 4, 2), (3, 1, 4, 2))) == 0.0

    def test_eod_at_least_delta_eop(self):
        c = conf((8, 1, 9, 2), (6, 2, 8, 4), (5, 1, 7, 5))
        assert eod(c) >= delta_eop(c) - 1e-12

    @given(st.lists(
        st.tuples(st.integers(1, 20), st.integers(0, 20),
                  st.integers(1, 20), st.integers(0, 20)),
        min_size=2, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_ranges_and_permutation_invariance(self, groups):
        # force both positives and negatives per group
        c1 = conf(*groups)
        c2 = conf(*reversed(groups))
        assert 0.0 <= delta_eop(c1) <= 1.0
        assert 0.0 <= eod(c1) <= 2.0
        assert eod(c1) == pytest.approx(eod(c2), abs=1e-12)
        assert delta_eop(c1) == pytest.approx(delta_eop(c2), abs=1e-12)

    @given(st.lists(
        st.tuples(st.integers(1, 20), st.integers(0, 20),
                  st.integers(1, 20), st.integers(0, 20)),
        min_size=2, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_eod_triangle_bound(self, groups):
        c = conf(*groups)
        max_fpr_gap = max(a.fpr for a in c.by_group.values()) - \
            min(a.fpr for a in c.by_group.values())
        assert eod(c) <= delta_eop(c) + max_fpr_gap + 1e-12


class TestAccuracyByGroup:
    def test_hand_values_and_nan(self):
        y, s = labels_groups((1, 0), (0, 0), (1, 2))
        overall, per_group = accuracy_by_group([1, 1, 1], y, s, num_groups=3)
        assert overall == pytest.approx(2 / 3)
        assert per_group[0] == pytest.approx(0.5)
        assert np.isnan(per_group[1])
        assert per_group[2] == 1.0


class TestWriteMetrics:
    def rows(self):
        return [
            MetricsRow("resfl", 2, 0, 0.9, (0.95, 0.85), 0.1, 0.05, 0.08, 0.2, 0.001),
            MetricsRow("fedavg", 1, 1, 0.8, (0.9, 0.7), 0.2, 0.15, 0.18, 0.3, 0.002),
            MetricsRow("fedavg", 1, 0, 0.7, (0.8, 0.6), 0.3, 0.25, 0.28, 0.4, 0.003),
        ]

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(self.rows(), path)
        expect = (
            "algo,seed,round,accuracy,acc_g1,acc_g2,di_dev,delta_eop,eod,"
            "ufm_mean,unc_var\n"
            "fedavg,1,0,0.700000,0.800000,0.600000,0.300000,0.250000,0.280000,"
            "0.400000,0.003000\n"
            "fedavg,1,1,0.800000,0.900000,0.700000,0.200000,0.150000,0.180000,"
            "0.300000,0.002000\n"
            "resfl,2,0,0.900000,0.950000,0.850000,0.100000,0.050000,0.080000,"
            "0.200000,0.001000\n"
        )
        assert path.read_text() == expect

    def test_input_order_irrelevant_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics(self.rows(), p1)
        write_metrics(list(reversed(self.rows())), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_metrics([], path, num_groups=2)
        assert path.read_text() == (
            "algo,seed,round,accuracy,acc_g1,acc_g2,di_dev,delta_eop,eod,"
            "ufm_mean,unc_var\n")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_metrics(self.rows(), tmp_path / "missing" / "m.csv")
