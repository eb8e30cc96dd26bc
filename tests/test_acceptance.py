"""End-to-end acceptance suite.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (criterion 11,
the suite-time budget, is reported by the session hook in conftest.py).
Experiment-backed criteria share cached data builds and training runs
so paired comparisons reuse identical inputs.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from resfl_sim.adversarial import composite_gradients
from resfl_sim.attacks import byzantine_clients, byzantine_run, mia_config, mia_pools, \
    mia_run, mia_threshold, poisoned_shards, poisoning_run
from resfl_sim.cli import build_data as cli_build_data, main as cli_main
from resfl_sim.config import ExperimentConfig
from resfl_sim.datasets import partition
from oracles import logits_for, segment_view
from resfl_sim.evidential import evidence_batch, evidential_terms_batch
from resfl_sim.fairness import aggregation_weight, group_uncertainties, ufm, \
    uncertainty_variance
from resfl_sim.federation import aggregate_fedavg, aggregate_resfl, run_experiment
from resfl_sim.metrics import eod
from resfl_sim.network import NetworkSpec, ParameterSet, forward_batch, init_params
from probe import probe_accuracy

SEEDS = (1, 2, 3, 4, 5)

# amplitude disparity: group 3 gets the weakest class signal
GROUP_MEANS = ((0.0, 0.0), (-0.1, -0.1), (-0.25, -0.25), (-0.4, -0.4))

# the default config's data (20 features, 2 classes, 4 groups) and
# network, with the paper's federation: 4 clients x 50 rounds x 50 steps
PAPER = ExperimentConfig(seeds=SEEDS, group_means=GROUP_MEANS, rounds=50,
                         local_iterations=50, eta=0.002, eta_phi=0.05)


def report(criterion: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


def build_data(cfg: ExperimentConfig, seed: int):
    """The CLI's train/test split of ``cfg``'s data drawn with ``seed``."""
    return cli_build_data(replace(cfg, seeds=(seed,)))


def fed_config(algo: str, **overrides) -> ExperimentConfig:
    """PAPER with the adversary off for fedavg and at 0.5 otherwise."""
    return replace(PAPER, **{"lambda_adv": 0.0 if algo == "fedavg" else 0.5, **overrides})


@functools.lru_cache(maxsize=None)
def disparity_data(seed: int):
    return build_data(PAPER, seed)


@functools.lru_cache(maxsize=None)
def disparity_run(algo: str, seed: int):
    train, test = disparity_data(seed)
    shards = partition(train, 4, beta=0.5, seed=seed)
    return run_experiment(fed_config(algo), algo, seed, shards, test)


class TestCriterion1GradientCheck:
    def test_1_composite_gradients_match_finite_differences(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        step, rtol, atol = 1e-5, 1e-4, 1e-6
        checked = 0
        worst = 0.0
        while checked < 100:
            spec = NetworkSpec(
                input_dim=int(rng.integers(2, 5)),
                hidden_dims=tuple(int(rng.integers(2, 5))
                                  for _ in range(int(rng.integers(1, 3)))),
                num_classes=int(rng.integers(2, 4)),
                num_groups=int(rng.integers(2, 4)))
            params = init_params(spec, rng)
            n = int(rng.integers(1, 5))
            X = rng.standard_normal((n, spec.input_dim))
            # keep pre-activations clear of the ReLU kink so central
            # differences stay one-sided
            pres = forward_batch(params, X)[1]
            if min(np.abs(p).min() for p in pres) <= 1e-3:
                continue
            y = rng.integers(0, spec.num_classes, size=n)
            s = rng.integers(0, spec.num_groups, size=n)
            lam1 = float(rng.uniform(0.0, 1.0))
            lam_adv = float(rng.uniform(0.0, 2.0))
            grads = ParameterSet.zeros(spec)
            composite_gradients(params, X, y, s, lam1, lam_adv, grads)

            def scalar(p, which):
                task, unc, adv = composite_gradients(p, X, y, s, lam1, lam_adv,
                                                     ParameterSet.zeros(spec))
                if which == "theta_f":
                    return task + lam1 * unc - lam_adv * adv
                if which == "theta_e":
                    return task + lam1 * unc
                return adv

            for segment in ("theta_f", "theta_e", "phi"):
                vec = segment_view(params, segment)
                fd = np.empty_like(vec)
                for i in range(len(vec)):
                    orig = vec[i]
                    vec[i] = orig + step
                    hi = scalar(params, segment)
                    vec[i] = orig - step
                    lo = scalar(params, segment)
                    vec[i] = orig
                    fd[i] = (hi - lo) / (2 * step)
                analytic = segment_view(grads, segment)
                worst = max(worst, float(np.max(
                    np.abs(analytic - fd) / (np.abs(fd) + atol / rtol))))
                np.testing.assert_allclose(analytic, fd, rtol=rtol, atol=atol)
            checked += 1
        elapsed = time.monotonic() - t0
        report(1, checked == 100 and elapsed < 30.0,
               f"100 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2UfmBound:
    def test_2_ufm_bounded_on_random_vectors(self):
        rng = np.random.default_rng(0)
        ok = True
        for g in (2, 3, 4, 8):
            us = rng.uniform(1e-4, 1.0, size=(10_000, g))
            vals = np.array([ufm(row) for row in us])
            ok &= bool(np.all(vals >= 0.0) and np.all(vals < g))
        # zero spread collapses the metric exactly
        ok &= ufm(np.full(6, 0.42)) == 0.0
        report(2, ok, "0 <= ufm < G on 10k vectors per G in {2,3,4,8}")


class TestCriterion3AggregatorIdentity:
    def test_3_resfl_bitwise_fedavg_when_fair(self):
        net = NetworkSpec(input_dim=4, hidden_dims=(5,), num_classes=2, num_groups=2)
        rng = np.random.default_rng(1)
        deltas = np.stack([rng.standard_normal(net.theta_size) for _ in range(4)])
        # both global deltas are added to theta_G the same way
        ok = np.array_equal(aggregate_resfl(deltas, [0.0] * 4, server_lr=0.25),
                            aggregate_fedavg(deltas, [25] * 4))
        report(3, ok, "ufm=0 equal shards: resfl == fedavg bit-for-bit")


class TestCriterion4HandValues:
    def test_4_closed_form_examples(self):
        checks = []
        alpha = evidence_batch(np.array([0.0, 0.0]))
        checks.append(abs(alpha[0] - (1 + math.log(2))) < 1e-9)
        # rows: the logits whose alphas are (2, 2), (3, 1) and (9, 1)
        nll, reg, _, _ = evidential_terms_batch(
            logits_for([[2.0, 2.0], [3.0, 1.0], [9.0, 1.0]]), np.array([0, 1, 0]))
        checks.append(abs(nll[0] - 0.5) < 1e-9)
        checks.append(abs(nll[1] - 1.125) < 1e-9)
        checks.append(abs(reg[0] - 9.0) < 1e-9)
        checks.append(abs(reg[2] - 4.2) < 1e-9)
        us = group_uncertainties(np.array([4.0, 4.0, 2.0]), np.array([0, 0, 1]), 2)
        checks.append(abs(us[0] - 0.25) < 1e-9 and abs(us[1] - 0.5) < 1e-9)
        checks.append(abs(uncertainty_variance(us) - 0.015625) < 1e-9)
        checks.append(abs(ufm(us) - 0.25 / (0.375 + 1e-6)) < 1e-9)
        checks.append(abs(aggregation_weight(1.0) - 0.5) < 1e-9)
        checks.append(abs(aggregation_weight(3.0) - 0.25) < 1e-9)
        checks.append(abs(eod(np.array([[8, 1, 9, 2], [6, 2, 8, 4]])) - 0.3) < 1e-9)
        report(4, all(checks), f"{sum(checks)}/{len(checks)} hand values within 1e-9")


class TestCriterion5AttributeLeakage:
    def test_5_adversary_suppresses_group_probe(self):
        t0 = time.monotonic()
        # full group leak, no amplitude disparity
        data_cfg = ExperimentConfig(seeds=SEEDS, attr_leak=1.0)
        fed_probe, res_probe = [], []
        chance = None
        for seed in SEEDS:
            train, test = build_data(data_cfg, seed)
            shards = partition(train, 4, beta=0.5, seed=seed)
            s_test = test.s
            share = np.bincount(s_test, minlength=4) / len(s_test)
            chance = float(share.max())
            for algo, sink in (("fedavg", fed_probe), ("resfl", res_probe)):
                cfg = fed_config(algo, local_iterations=100,
                                 lambda_adv=0.0 if algo == "fedavg" else 2.0)
                params, _ = run_experiment(cfg, algo, seed, shards, test)
                X_tr, s_tr, X_te = train.X, train.s, test.X
                H_tr = forward_batch(params, X_tr)[2]
                H_te = forward_batch(params, X_te)[2]
                sink.append(probe_accuracy(H_tr, s_tr, H_te, s_test, 4))
        fed_mean, res_mean = float(np.mean(fed_probe)), float(np.mean(res_probe))
        elapsed = time.monotonic() - t0
        ok = fed_mean >= chance + 0.20 and res_mean <= chance + 0.10 \
            and elapsed < 300.0
        report(5, ok,
               f"probe fedavg {fed_mean:.3f} >= {chance + 0.20:.2f}, "
               f"resfl {res_mean:.3f} <= {chance + 0.10:.2f}, {elapsed:.0f}s")


class TestCriterion6Fairness:
    def test_6_resfl_improves_fairness(self):
        t0 = time.monotonic()
        fed_eop, res_eop, fed_var, res_var = [], [], [], []
        for seed in SEEDS:
            _, rec_f = disparity_run("fedavg", seed)
            _, rec_r = disparity_run("resfl", seed)
            fed_eop.append(rec_f[-1].delta_eop)
            res_eop.append(rec_r[-1].delta_eop)
            fed_var.append(rec_f[-1].unc_var)
            res_var.append(rec_r[-1].unc_var)
        elapsed = time.monotonic() - t0
        ok = float(np.mean(res_eop)) < float(np.mean(fed_eop)) and \
            float(np.mean(res_var)) < float(np.mean(fed_var)) and elapsed < 300.0
        report(6, ok,
               f"dEOP {np.mean(fed_eop):.3f}->{np.mean(res_eop):.3f}, "
               f"unc_var {np.mean(fed_var):.2e}->{np.mean(res_var):.2e}, "
               f"{elapsed:.0f}s")


class TestCriterion7Membership:
    def test_7_overfit_leaks_and_dp_mitigates(self):
        over_scores, dp_scores = [], []
        for seed in SEEDS:
            # 30 members, 30 test non-members, and a 400-sample shadow pool
            members, nonmembers, shadow_members, shadow_nonmembers = mia_pools(
                PAPER, *disparity_data(seed), seed)
            # the shadow and both targets: the CLI's 1-client config, DP or not
            cfg = mia_config(PAPER)
            target, _ = run_experiment(cfg, "fedavg", seed, [members], None)
            dp_target, _ = run_experiment(cfg, "fedavg_dp", seed, [members], None)
            shadow, _ = run_experiment(cfg, "fedavg", seed, [shadow_members], None)
            tau = mia_threshold(shadow, shadow_members, shadow_nonmembers)
            over_scores.append(mia_run(target, members, nonmembers, tau).score)
            dp_scores.append(mia_run(dp_target, members, nonmembers, tau).score)
        over, dp = float(np.mean(over_scores)), float(np.mean(dp_scores))
        ok = over > 0.6 and over - dp >= 0.05
        report(7, ok, f"overfit mia {over:.3f} > 0.6, dp reduces by {over - dp:.3f}")


def byzantine_score(cfg, algo, seed, shards, test, clean) -> float:
    """Accuracy degradation of the cell trained under ``cfg``'s Byzantine clients."""
    byzantine = byzantine_clients(cfg, shards)
    _, attacked = run_experiment(cfg, algo, seed, shards, test, byzantine)
    return byzantine_run(clean[1], attacked, byzantine).score


def poisoning_score(cfg, algo, seed, shards, test, clean) -> float:
    """EOD shift of the cell trained on ``cfg``'s poisoned shards."""
    _, poisoned = run_experiment(cfg, algo, seed, poisoned_shards(cfg, shards, seed), test)
    return poisoning_run(clean[1], poisoned, cfg.poison_rate).score


class TestCriterion8Byzantine:
    def test_8_noise_degrades_fedavg_resfl_resists(self):
        t0 = time.monotonic()
        degr = {"fedavg": [], "resfl": []}
        for seed in SEEDS:
            train, test = disparity_data(seed)
            shards = partition(train, 4, beta=0.5, seed=seed)
            for algo in ("fedavg", "resfl"):
                cfg = fed_config(algo, byzantine_fraction=0.25, byzantine_scale=10.0)
                degr[algo].append(byzantine_score(cfg, algo, seed, shards, test,
                                                  disparity_run(algo, seed)))
        wins = sum(r < f for f, r in zip(degr["fedavg"], degr["resfl"]))
        elapsed = time.monotonic() - t0
        ok = all(d > 0 for d in degr["fedavg"]) and wins >= 4
        report(8, ok,
               f"fedavg degradation mean {np.mean(degr['fedavg']):.3f} (>0 on "
               f"{sum(d > 0 for d in degr['fedavg'])}/5), resfl smaller on "
               f"{wins}/5, {elapsed:.0f}s")


class TestCriterion9Poisoning:
    def test_9_poisoning_widens_gap_and_null_cases_are_exact(self):
        shifts = []
        for seed in SEEDS:
            train, test = disparity_data(seed)
            shards = partition(train, 4, beta=0.5, seed=seed)
            cfg = fed_config("fedavg", poison_group=3, poison_rate=0.2)
            shifts.append(poisoning_score(cfg, "fedavg", seed, shards, test,
                                          disparity_run("fedavg", seed)))
        mean_shift = float(np.mean(shifts))

        # null attacks must be exactly zero, not merely small
        train, test = disparity_data(1)
        shards = partition(train, 4, beta=0.5, seed=1)
        cfg = fed_config("fedavg", rounds=3)
        clean = run_experiment(cfg, "fedavg", 1, shards, test)
        zero_poison = poisoning_score(replace(cfg, poison_group=3, poison_rate=0.0),
                                      "fedavg", 1, shards, test, clean)
        zero_byz = byzantine_score(replace(cfg, byzantine_fraction=0.0,
                                           byzantine_scale=10.0),
                                   "fedavg", 1, shards, test, clean)
        ok = mean_shift > 0 and zero_poison == 0.0 and zero_byz == 0.0
        report(9, ok,
               f"mean eod shift {mean_shift:.3f} > 0; rate=0 shift {zero_poison}, "
               f"f=0 degradation {zero_byz}")


class TestCriterion10Determinism:
    CFG = """\
[experiment]
seeds = 1, 2
algorithms = fedavg, resfl

[data]
input_dim = 8
samples_per_group = 40, 40, 40, 40
group_means = 0,0; -0.1,-0.1; -0.25,-0.25; -0.4,-0.4

[federation]
rounds = 3
local_iterations = 3
batch_size = 32
eta = 0.005
hidden_dims = 16
"""

    def test_10_cli_reruns_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        rc1 = cli_main(["run", "--config", str(cfg), "--out", str(o1)])
        rc2 = cli_main(["run", "--config", str(cfg), "--out", str(o2)])
        same_metrics = (o1 / "metrics.csv").read_bytes() == \
            (o2 / "metrics.csv").read_bytes()
        same_summary = (o1 / "summary").read_bytes() == (o2 / "summary").read_bytes()
        ok = rc1 == 0 and rc2 == 0 and same_metrics and same_summary
        report(10, ok, "rerun bytes identical (metrics.csv, summary)")
