"""Fairness/utility metrics and the deterministic CSV writer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import data_config, reference_delta_eop, reference_di_deviation, \
    reference_eod
from resfl_sim.datasets import generate_dataset
from resfl_sim.metrics import (
    DI_CAP,
    FAVORABLE_CLASS,
    accuracy_by_group,
    confusion_by_group,
    delta_eop,
    di_deviation,
    eod,
    read_metrics,
    write_metrics,
)
from resfl_sim.federation import RoundRecord, run_experiment


def conf(*groups):
    """Count array from (tp, fp, tn, fn) tuples, one row per group."""
    return np.array(groups, dtype=int).reshape(-1, 4)


def labels_groups(*samples):
    """(labels, groups) arrays from (y, s) pairs."""
    y, s = zip(*samples)
    return np.array(y), np.array(s)


def samples_from_counts(counts):
    """(predictions, labels, groups) whose group g holds counts[g] =
    (tp, fp, tn, fn) samples; an all-zero tuple is a group without samples."""
    pos, neg = FAVORABLE_CLASS, 1 - FAVORABLE_CLASS
    cells = np.array([[pos, pos], [pos, neg], [neg, neg], [neg, pos]])  # (pred, label)
    table = conf(*counts)
    pairs = np.repeat(np.tile(cells, (len(table), 1)), table.ravel(), axis=0)
    groups = np.repeat(np.arange(len(table)), table.sum(axis=1))
    return pairs[:, 0], pairs[:, 1], groups


class TestConfusion:
    def test_hand_counts(self):
        y, s = labels_groups((1, 0), (1, 0), (0, 0), (1, 1), (0, 1))
        preds = np.array([1, 0, 1, 1, 0])
        c = confusion_by_group(preds, y, s)
        np.testing.assert_array_equal(c, [[1, 1, 0, 1], [1, 0, 1, 0]])

    def test_rates(self):
        # row (3, 1, 4, 2): predicted-positive rate 0.4, TPR 0.6, FPR 0.2;
        # row (3, 1, 9, 7): 0.2, 0.3, 0.1
        c = conf((3, 1, 4, 2), (3, 1, 9, 7))
        assert di_deviation(c) == pytest.approx(1.0 - 0.2 / 0.4, abs=1e-12)
        assert delta_eop(c) == pytest.approx(0.6 - 0.3, abs=1e-12)
        assert eod(c) == pytest.approx((0.6 - 0.3) + (0.2 - 0.1), abs=1e-12)

    def test_groups_without_samples_dropped(self):
        # groups 1 and 3 have no samples; rows stay in group order
        y, s = labels_groups((1, 2), (0, 0), (0, 2), (1, 4))
        c = confusion_by_group(np.array([1, 1, 0, 0]), y, s)
        np.testing.assert_array_equal(c, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
        assert c.dtype.kind == "i"

    def test_no_samples_empty_table(self):
        c = confusion_by_group(*[np.array([], dtype=int)] * 3)
        assert c.shape == (0, 4)
        assert np.isnan(di_deviation(c))

    def test_only_the_favorable_class_is_positive(self):
        # with three classes, any non-favorable prediction of a
        # non-favorable label is a true negative, even when they differ
        y, s = labels_groups((0, 0), (2, 0), (FAVORABLE_CLASS, 0), (2, 0))
        c = confusion_by_group(np.array([2, 0, FAVORABLE_CLASS, FAVORABLE_CLASS]), y, s)
        np.testing.assert_array_equal(c, [[1, 1, 2, 0]])

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            confusion_by_group(np.array([1]), *labels_groups((1, 0), (0, 0)))


class TestDiDeviation:
    def test_equal_rates_zero(self):
        assert di_deviation(conf((2, 2, 4, 2), (1, 1, 2, 1))) == 0.0

    def test_hand_value(self):
        # rates 0.5 and 0.25 -> |1 - 0.25/0.5| = 0.5
        assert di_deviation(conf((4, 1, 3, 2), (1, 1, 5, 1))) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_capped(self):
        assert di_deviation(conf((0, 0, 5, 5), (0, 0, 5, 5))) == DI_CAP

    def test_one_sided_zero_rate(self):
        assert di_deviation(conf((5, 0, 0, 0), (0, 0, 5, 5))) == pytest.approx(1.0)

    def test_single_group_undefined(self):
        assert np.isnan(di_deviation(conf((1, 1, 1, 1))))


class TestEopAndEod:
    def test_delta_eop_hand_value(self):
        # TPRs 0.8 and 0.5
        assert delta_eop(conf((4, 0, 5, 1), (1, 0, 5, 1))) == pytest.approx(0.3)

    def test_delta_eop_skips_positive_free_groups(self):
        c = conf((4, 0, 5, 1), (0, 2, 3, 0), (1, 0, 5, 1))
        assert delta_eop(c) == pytest.approx(0.3)
        assert np.isnan(delta_eop(conf((4, 0, 5, 1), (0, 2, 3, 0))))

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
        fpr = c[:, 1] / (c[:, 1] + c[:, 2])
        assert eod(c) <= delta_eop(c) + fpr.max() - fpr.min() + 1e-12


class TestAgainstPairwiseReference:
    @given(st.lists(st.tuples(*[st.integers(0, 12)] * 4), max_size=6))
    @example([])  # no samples at all
    @example([(3, 1, 2, 2)])  # one group
    @example([(0, 0, 3, 2), (0, 0, 0, 0), (0, 0, 1, 4)])  # no predicted positives
    @example([(2, 1, 0, 0), (0, 0, 0, 0), (1, 3, 2, 2)])  # positives or negatives only
    @settings(max_examples=500, deadline=None)
    def test_metrics_equal_the_reference(self, counts):
        """confusion_by_group and the three metrics give exactly the
        reference's values, NaN where it does."""
        c = confusion_by_group(*samples_from_counts(counts))
        table = [g for g in counts if any(g)]
        np.testing.assert_array_equal(c, conf(*table))
        for metric, reference in ((di_deviation, reference_di_deviation),
                                  (delta_eop, reference_delta_eop),
                                  (eod, reference_eod)):
            got, expect = metric(c), reference(table)
            assert type(got) is float
            assert got == expect or (math.isnan(got) and math.isnan(expect))


class TestAccuracyByGroup:
    def test_hand_values_and_nan(self):
        y, s = labels_groups((1, 0), (0, 0), (1, 2))
        overall, per_group = accuracy_by_group(np.array([1, 1, 1]), y, s, num_groups=3)
        assert overall == pytest.approx(2 / 3)
        assert per_group[0] == pytest.approx(0.5)
        assert np.isnan(per_group[1])
        assert per_group[2] == 1.0


def record(round_idx, accuracy, acc_by_group, di_dev, delta_eop, eod, ufm, unc_var):
    """A RoundRecord of a client per ``ufm`` entry; NaN marks a dropped one."""
    ufm = np.array(ufm, dtype=float)
    return RoundRecord(round_idx, accuracy, acc_by_group, di_dev, delta_eop, eod,
                       unc_var, ufm, np.full((len(ufm), 3), np.nan))


class TestWriteMetrics:
    def cells(self):
        """(algo, seed, records) cells, not in file order."""
        return [
            ("resfl", 2, [record(0, 0.9, (0.95, 0.85), 0.1, 0.05, 0.08, [0.2], 1 / 3)]),
            ("fedavg", 1, [record(0, 0.7, (0.8, 0.6), 0.3, 0.25, 0.28, [0.4, np.nan], 3e-13),
                           record(1, 0.8, (0.9, 0.7), 0.2, 0.15, 0.18, [0.1, 0.5], 0.002)]),
        ]

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(self.cells(), path, num_groups=2)
        # each float's shortest round-trip text; ufm_mean skips the NaN client
        expect = (
            "algo,seed,round,accuracy,acc_g1,acc_g2,di_dev,delta_eop,eod,"
            "ufm_mean,unc_var\n"
            "fedavg,1,0,0.7,0.8,0.6,0.3,0.25,0.28,0.4,3e-13\n"
            "fedavg,1,1,0.8,0.9,0.7,0.2,0.15,0.18,0.3,0.002\n"
            "resfl,2,0,0.9,0.95,0.85,0.1,0.05,0.08,0.2,0.3333333333333333\n"
        )
        assert path.read_text() == expect

    def test_read_back_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(self.cells(), path, num_groups=2)
        want = [{"algo": algo, "seed": seed, "round": r.round, "accuracy": r.accuracy,
                 "acc_g1": r.acc_by_group[0], "acc_g2": r.acc_by_group[1],
                 "di_dev": r.di_dev, "delta_eop": r.delta_eop, "eod": r.eod,
                 "ufm_mean": r.ufm_mean, "unc_var": r.unc_var}
                for algo, seed, records in sorted(self.cells()) for r in records]
        assert read_metrics(path) == want

    def test_input_order_irrelevant_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics(self.cells(), p1, num_groups=2)
        write_metrics(list(reversed(self.cells())), p2, num_groups=2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_metrics([], path, num_groups=2)
        assert path.read_text() == (
            "algo,seed,round,accuracy,acc_g1,acc_g2,di_dev,delta_eop,eod,"
            "ufm_mean,unc_var\n")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_metrics(self.cells(), tmp_path / "missing" / "m.csv", num_groups=2)

    def test_cell_without_eval_samples_reads_back_at_full_width(self, tmp_path):
        # a cell trained without eval samples records one NaN accuracy
        # per group, so its rows are as wide as the header
        cfg = data_config(input_dim=4, samples_per_group=(10,) * 4, num_clients=1,
                          rounds=2, local_iterations=1, hidden_dims=(4,))
        data = generate_dataset(cfg, seed=0)
        _, records = run_experiment(cfg, "fedavg", 0, [data], None)
        path = tmp_path / "m.csv"
        write_metrics([("fedavg", 0, records)], path, num_groups=4)
        header, *lines = path.read_text().splitlines()
        assert all(len(line.split(",")) == len(header.split(",")) for line in lines)
        rows = read_metrics(path)
        assert all(math.isnan(r[f"acc_g{g + 1}"]) for r in rows for g in range(4))
        assert [r["round"] for r in rows] == [0, 1]
