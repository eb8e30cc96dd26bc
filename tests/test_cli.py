"""CLI smoke tests: subcommands, outputs, exit codes, determinism."""

import csv
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from resfl_sim import cli, federation
from resfl_sim.attacks import mia_config, mia_pools
from resfl_sim.cli import main
from resfl_sim.config import load_config
from resfl_sim.datasets import partition
from resfl_sim.federation import apply_dp, initial_params, run_experiment
from resfl_sim.metrics import SCALAR_COLUMNS

TINY = """\
[experiment]
seeds = 1, 2
algorithms = fedavg, resfl

[data]
input_dim = 6
samples_per_group = 30, 30, 30, 30
attr_leak = 0.5

[federation]
rounds = 2
local_iterations = 2
batch_size = 16
eta = 0.01
hidden_dims = 8

[attack]
mia_overfit_size = 10
mia_overfit_steps = 30
aia_trials = 10
poison_rate = 0.2
byzantine_fraction = 0.25
byzantine_scale = 2.0
"""


# an invalid value -> (the text of TINY it replaces, the replacement); a
# section may be reopened, so one replacement can set keys in two sections
INVALID = {
    "seeds = (none)": ("seeds = 1, 2", "seeds ="),
    "seeds = 1, 1": ("seeds = 1, 2", "seeds = 1, 1"),
    "seeds = -1": ("seeds = 1, 2", "seeds = -1"),
    "algorithms = krum": ("algorithms = fedavg, resfl", "algorithms = fedavg, krum"),
    "algorithms = resfl, resfl": ("algorithms = fedavg, resfl", "algorithms = resfl, resfl"),
    "test_fraction = 1": ("attr_leak = 0.5", "attr_leak = 0.5\ntest_fraction = 1"),
    "rounds = 0": ("rounds = 2", "rounds = 0"),
    "rounds = -1": ("rounds = 2", "rounds = -1"),
    "local_iterations = -1": ("local_iterations = 2", "local_iterations = -1"),
    "hidden_dims = (none)": ("hidden_dims = 8", "hidden_dims ="),
    "server_lr = -1": ("eta = 0.01", "eta = 0.01\nserver_lr = -1"),
    "server_lr = 0": ("eta = 0.01", "eta = 0.01\nserver_lr = 0"),
    "kinds = mia, bogus": ("[attack]", "[attack]\nkinds = mia, bogus"),
    "kinds = aia, aia": ("[attack]", "[attack]\nkinds = aia, aia"),
    "eta = 0": ("eta = 0.01", "eta = 0"),
    "eta_phi = 0": ("eta = 0.01", "eta = 0.01\neta_phi = 0"),
    "lambda1 = -1": ("eta = 0.01", "eta = 0.01\nlambda1 = -1"),
    "lambda_adv = -0.1": ("eta = 0.01", "eta = 0.01\nlambda_adv = -0.1"),
    "batch_size = 0": ("batch_size = 16", "batch_size = 0"),
    "hidden_dims = 0": ("hidden_dims = 8", "hidden_dims = 0"),
    "num_clients = 0": ("rounds = 2", "rounds = 2\nnum_clients = 0"),
    "dp_clip = 0": ("eta = 0.01", "eta = 0.01\ndp_clip = 0"),
    "dp_epsilon = 0": ("eta = 0.01", "eta = 0.01\ndp_epsilon = 0"),
    # the Gaussian mechanism's noise scale holds for epsilon < 1 only
    "dp_epsilon = 1": ("eta = 0.01", "eta = 0.01\ndp_epsilon = 1"),
    "rows = -1,0.5": ("[attack]", "[sweep]\nrows = -1,0.5\n\n[attack]"),
    "rows = 0.1,-1": ("[attack]", "[sweep]\nrows = 0.1,-1\n\n[attack]"),
    # one pair, written two ways
    "rows = 0.1,1; 0.10,1.0": ("[attack]", "[sweep]\nrows = 0.1,1; 0.10,1.0\n\n[attack]"),
    "partition_beta = 0": ("attr_leak = 0.5", "attr_leak = 0.5\npartition_beta = 0"),
    "mia_overfit_size = 0": ("mia_overfit_size = 10", "mia_overfit_size = 0"),
    # 120 training samples leave the shadow pool 3 < 4 samples
    "mia_overfit_size = 117": ("mia_overfit_size = 10", "mia_overfit_size = 117"),
    "mia_overfit_steps = -5": ("mia_overfit_steps = 30", "mia_overfit_steps = -5"),
    "aia_trials = 0": ("aia_trials = 10", "aia_trials = 0"),
    "aia_trials = -3": ("aia_trials = 10", "aia_trials = -3"),
    "byzantine_fraction = 1.0": ("byzantine_fraction = 0.25", "byzantine_fraction = 1.0"),
    "byzantine_scale = -1": ("byzantine_scale = 2.0", "byzantine_scale = -1"),
    "poison_group = 4": ("poison_rate = 0.2", "poison_rate = 0.2\npoison_group = 4"),
    "poison_group = -1": ("poison_rate = 0.2", "poison_rate = 0.2\npoison_group = -1"),
    "poison_group naming an empty group": (
        "samples_per_group = 30, 30, 30, 30",
        "samples_per_group = 30, 0, 30, 30\n[attack]\npoison_group = 1\n[data]"),
    "poison_rate = 1.5": ("poison_rate = 0.2", "poison_rate = 1.5"),
    "input_dim = 0": ("input_dim = 6", "input_dim = 0"),
    "num_classes = 1": ("attr_leak = 0.5", "attr_leak = 0.5\nnum_classes = 1"),
    "num_groups = 3 (4 counts)": ("attr_leak = 0.5", "attr_leak = 0.5\nnum_groups = 3"),
    "num_groups = 0, samples_per_group = (none)": (
        "samples_per_group = 30, 30, 30, 30", "samples_per_group =\nnum_groups = 0"),
    "samples_per_group = 30, 0, 0, 0": ("samples_per_group = 30, 30, 30, 30",
                                        "samples_per_group = 30, 0, 0, 0"),
    "samples_per_group = 30, -1, 30, 30": ("samples_per_group = 30, 30, 30, 30",
                                           "samples_per_group = 30, -1, 30, 30"),
    "group_means of one class": ("attr_leak = 0.5", "attr_leak = 0.5\ngroup_means = 0; 0; 0; 0"),
    "group_means with a nan": ("attr_leak = 0.5",
                               "attr_leak = 0.5\ngroup_means = 0,0; 0,nan; 0,0; 0,0"),
    "noise_std = -1": ("attr_leak = 0.5", "attr_leak = 0.5\nnoise_std = -1"),
    "noise_std = nan": ("attr_leak = 0.5", "attr_leak = 0.5\nnoise_std = nan"),
    "attr_leak = 1.5": ("attr_leak = 0.5", "attr_leak = 1.5"),
    "label_flip_noise = 0.5, 0, 0, 0": ("attr_leak = 0.5",
                                        "attr_leak = 0.5\nlabel_flip_noise = 0.5, 0, 0, 0"),
    # a non-finite rate would run: eta = inf freezes the model, and
    # dp_epsilon = inf adds no DP noise to a run reported as DP
    "eta = inf": ("eta = 0.01", "eta = inf"),
    "dp_epsilon = inf": ("eta = 0.01", "eta = 0.01\ndp_epsilon = inf"),
}


# the NumPy-only CI step's tiny config (every algorithm, the default
# network), made degenerate by one local step of size 1e150
DEGENERATE = """\
[experiment]
seeds = 1
algorithms = fedavg, fedavg_dp, resfl

[data]
samples_per_group = 60, 50, 40, 30

[federation]
num_clients = 2
rounds = 2
local_iterations = 1
eta = 1e150

[attack]
mia_overfit_steps = 20
aia_trials = 5

[sweep]
rows = 0.1,0.01
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY)
    return p


class TestRun:
    def test_creates_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        csv = (out / "metrics.csv").read_text()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("algo,seed,round,accuracy,acc_g1")
        # 2 algorithms x 2 seeds x 2 rounds
        assert len(lines) == 1 + 8
        summary = json.loads((out / "summary").read_text())
        assert set(summary) == {"fedavg", "resfl"}
        assert summary["resfl"]["seeds"] == [1, 2]
        assert load_config(out / "config.cfg") == load_config(cfg_path)

    def test_rerun_byte_identical(self, cfg_path, tmp_path):
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg_path), "--out", str(o1)])
        main(["run", "--config", str(cfg_path), "--out", str(o2)])
        assert (o1 / "metrics.csv").read_bytes() == (o2 / "metrics.csv").read_bytes()
        assert (o1 / "summary").read_bytes() == (o2 / "summary").read_bytes()

    def test_seed_override(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "9"])
        csv = (out / "metrics.csv").read_text()
        seeds = {line.split(",")[1] for line in csv.strip().splitlines()[1:]}
        assert seeds == {"9"}

    def test_seed_override_reproduces_its_row_of_the_full_run(self, tmp_path):
        cfg = tmp_path / "three.cfg"
        cfg.write_text(TINY.replace("seeds = 1, 2", "seeds = 1, 2, 3"))
        full, single = tmp_path / "full", tmp_path / "single"
        assert main(["run", "--config", str(cfg), "--out", str(full)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(single),
                     "--seed", "2"]) == 0
        full_rows = (full / "metrics.csv").read_text().splitlines()
        single_rows = (single / "metrics.csv").read_text().splitlines()
        assert single_rows[0] == full_rows[0]
        assert single_rows[1:] == [r for r in full_rows[1:] if r.split(",")[1] == "2"]

    def test_rerun_from_the_written_config_byte_identical(self, tmp_path):
        # the data are drawn from the first seed and a group mean that a
        # 6-digit echo would round, so both must reach config.cfg exactly
        cfg = tmp_path / "means.cfg"
        cfg.write_text(TINY.replace("attr_leak = 0.5", "attr_leak = 0.5\n"
                                    "group_means = 0,0; -0.1234567,0; 0,0; 0,0"))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--config", str(cfg), "--out", str(first), "--seed", "2"]) == 0
        assert main(["run", "--config", str(first / "config.cfg"), "--out", str(second),
                     "--seed", "2"]) == 0
        for name in ("metrics.csv", "summary", "config.cfg"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_early_stop_kept_in_summary(self, tmp_path):
        # an absurd step size makes every client's second local step
        # non-finite, so round 0 drops every client and the run stops
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY.replace("eta = 0.01", "eta = 1e300"))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert not [w for w in caught if "empty slice" in str(w.message)]
        # the drop is reported by the finiteness checks, not NumPy warnings
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        rounds = {line.split(",")[2] for line in
                  (out / "metrics.csv").read_text().strip().splitlines()[1:]}
        assert rounds == {"0"}
        summary = json.loads((out / "summary").read_text())
        assert set(summary) == {"fedavg", "resfl"}
        assert summary["resfl"]["ufm_mean"] is None
        assert 0.0 <= summary["resfl"]["accuracy"] <= 1.0

    def test_round_after_a_huge_finite_update_is_recorded_frozen(self, tmp_path):
        # one local step of an absurd size leaves a finite but huge model
        # after round 0; round 1 drops every client and the run stops there.
        # Nothing reads round 0's update norms without a Byzantine client,
        # so they must not overflow (RuntimeWarnings are errors in Tier-1)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(TINY.replace("seeds = 1, 2", "seeds = 1")
                       .replace("algorithms = fedavg, resfl", "algorithms = fedavg")
                       .replace("rounds = 2", "rounds = 3\nnum_clients = 2")
                       .replace("local_iterations = 2", "local_iterations = 1")
                       .replace("eta = 0.01", "eta = 1e300"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [["fedavg", "1", "0"],
                                                    ["fedavg", "1", "1"]]

    def test_ufm_mean_averages_only_the_reporting_clients(self, tmp_path, monkeypatch):
        # client 1 drops in round 1 of a 4-client run, so that round's
        # ufm_mean is the mean of the other three clients' reports
        cfg = tmp_path / "drop.cfg"
        cfg.write_text(TINY.replace("seeds = 1, 2", "seeds = 1")
                       .replace("algorithms = fedavg, resfl", "algorithms = resfl")
                       .replace("rounds = 2", "rounds = 2\nnum_clients = 4"))
        original, ufms = federation.client_round, []  # one entry per client round

        def dropping(*args):
            if len(ufms) == 5:
                ufms.append(None)
                raise FloatingPointError("client 1 drops in round 1")
            ufms.append(original(*args))
            return ufms[-1]

        monkeypatch.setattr(federation, "client_round", dropping)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        ufm_mean = [float(row.split(",")[-2]) for row in rows]
        assert ufm_mean == [float(np.mean(ufms[:4])),
                            float(np.mean([ufms[4], *ufms[6:]]))]

    def test_metrics_csv_holds_each_records_values_exactly(self, tmp_path):
        # the NumPy-only CI step's tiny config; fedavg_dp's unc_var is
        # about 1e-13, which six decimals would write as 0
        cfg_path = tmp_path / "ci.cfg"
        cfg_path.write_text(DEGENERATE.replace("local_iterations = 1\neta = 1e150",
                                               "local_iterations = 2"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = load_config(cfg_path)
        train, test = cli.build_data(cfg)
        shards = partition(train, cfg.num_clients, cfg.partition_beta, seed=1)
        want = []
        for algo in cfg.algorithms:
            want += [[algo, "1", str(r.round), r.accuracy, *r.acc_by_group, r.di_dev,
                      r.delta_eop, r.eod, r.ufm_mean, r.unc_var]
                     for r in run_experiment(cfg, algo, 1, shards, test)[1]]
        with open(out / "metrics.csv", encoding="utf-8", newline="") as f:
            got = [[*row[:3], *map(float, row[3:])] for row in list(csv.reader(f))[1:]]
        assert [g[:3] for g in got] == [w[:3] for w in want]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g[3:], w[3:])  # exact; NaN matches NaN
        assert all(0 < w[-1] < 1e-6 for w in want if w[0] == "fedavg_dp")

    @pytest.mark.parametrize("eta", ["1e150", "1e300"])
    def test_degenerate_model_runs_to_the_end(self, tmp_path, eta):
        # one local step of size 1e150 leaves a huge finite model whose
        # evidence overflows and whose update's squared norm overflows; at
        # 1e300 the second round's step also overflows the fedavg_dp model
        # itself, which drops its clients. Every command exits 0 without a
        # NumPy warning (RuntimeWarnings are errors in Tier-1), the model's
        # UFM is the upper bound G = 4, the fedavg and resfl models, which
        # have no prediction, score NaN (not class 0's share), and the
        # attacks that probe them score NaN
        cfg = tmp_path / "degenerate.cfg"
        cfg.write_text(DEGENERATE.replace("eta = 1e150", f"eta = {eta}"))
        for command in ("run", "sweep", "attack"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / command)]) == 0, command
        rows = [row.split(",") for row in
                (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]]
        assert [float(r[-2]) for r in rows if r[2] == "0"] == [4.0] * 3
        # accuracy, the four group accuracies, di_dev, delta_eop and eod
        assert [r[3:11] for r in rows if r[0] != "fedavg_dp" and r[2] == "0"] \
            == [["nan"] * 8] * 2
        sweep = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert sweep[1].split(",")[-2:] == ["nan", "nan"]

    @pytest.mark.parametrize("eta", ["1e150", "1e300"])
    def test_degenerate_summary_is_strict_json(self, tmp_path, eta):
        # the fedavg and resfl models have no prediction, so each of their
        # means is undefined and written as null: JSON has no NaN
        cfg = tmp_path / "degenerate.cfg"
        cfg.write_text(DEGENERATE.replace("eta = 1e150", f"eta = {eta}"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"summary holds {constant}, which JSON does not allow")

        summary = json.loads((tmp_path / "summary").read_text(), parse_constant=reject)
        for algo in ("fedavg", "resfl"):
            assert all(summary[algo][col] is None for col in SCALAR_COLUMNS), algo
        assert 0.0 <= summary["fedavg_dp"]["accuracy"] <= 1.0

    def test_algorithms_of_a_seed_share_one_shard_list(self, cfg_path, tmp_path,
                                                       monkeypatch):
        shard_lists = {}  # seed -> the shard lists its cells trained on, by identity

        def recording(config, algorithm, seed, shards, eval_samples):
            shard_lists.setdefault(seed, set()).add(id(shards))
            return run_experiment(config, algorithm, seed, shards, eval_samples)

        monkeypatch.setattr(cli, "run_experiment", recording)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert {seed: len(ids) for seed, ids in shard_lists.items()} == {1: 1, 2: 1}

    def test_env_var_out_dir(self, cfg_path, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("RESFL_SIM_OUT", str(env_out))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (env_out / "metrics.csv").exists()


class TestExitCodes:
    def test_missing_seeds_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[federation]\nrounds = 2\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_attack_kind_rejected_by_argparse(self, cfg_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--config", str(cfg_path), "--kind", "rowhammer",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_jobs_flag_rejected(self, cfg_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--jobs", "2",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad", sorted(INVALID))
    def test_invalid_value_is_a_config_error_before_any_data(self, tmp_path, capsys,
                                                             monkeypatch, bad):
        def no_data(cfg):
            raise AssertionError("data built for an invalid config")

        monkeypatch.setattr(cli, "build_data", no_data)
        p = tmp_path / "bad.cfg"
        p.write_text(TINY.replace(*INVALID[bad], 1))
        for command in ("run", "attack", "sweep"):
            assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
            assert "config error" in capsys.readouterr().err

    def test_overflowing_features_are_a_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "big.cfg"
        p.write_text(TINY.replace("attr_leak = 0.5", "attr_leak = 0.5\nnoise_std = 1e308"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "non-finite features" in capsys.readouterr().err

    def test_negative_seed_flag_is_a_usage_error(self, cfg_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                  "--seed", "-3"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_report_without_run_fails(self, cfg_path, tmp_path):
        assert main(["report", "--config", str(cfg_path),
                     "--out", str(tmp_path / "empty" / "x")]) == 1
        # report only reads its directory, so a failing one creates none
        assert not (tmp_path / "empty").exists()


class TestAttack:
    def test_byzantine_rows(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["attack", "--config", str(cfg_path), "--kind", "byzantine",
                     "--out", str(out), "--seed", "1"]) == 0
        lines = (out / "attacks.csv").read_text().strip().splitlines()
        assert lines[0] == "attack,algo,seed,score,aux"
        algos = {line.split(",")[1] for line in lines[1:]}
        assert algos == {"fedavg", "resfl"}
        # --seed and --kind select; the written config is the file's
        assert load_config(out / "config.cfg") == load_config(cfg_path)

    def test_mia_rows_and_rerun_identical(self, cfg_path, tmp_path):
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        for out in (o1, o2):
            assert main(["attack", "--config", str(cfg_path), "--kind", "mia",
                         "--out", str(out), "--seed", "1"]) == 0
        lines = (o1 / "attacks.csv").read_text().strip().splitlines()
        variants = {line.split(",")[1] for line in lines[1:]}
        assert variants == {"overfit", "fedavg_dp"}
        assert (o1 / "attacks.csv").read_bytes() == (o2 / "attacks.csv").read_bytes()

    def test_dp_target_differs_from_overfit_only_in_dp(self, cfg_path):
        # both MIA targets train from one init on the same batches, so the
        # DP target's update is the overfit target's, clipped and noised
        # with the round-0 stream of client 0
        cfg, seed = load_config(cfg_path), 1
        members = mia_pools(cfg, *cli.build_data(cfg), seed)[0]
        init = initial_params(cfg.network(), seed).theta
        mia_cfg = mia_config(cfg)
        overfit, _ = run_experiment(mia_cfg, "fedavg", seed, [members], None)
        dp_target, _ = run_experiment(mia_cfg, "fedavg_dp", seed, [members], None)
        expected = overfit.theta - init  # a copy, clipped and noised in place
        apply_dp(expected, mia_cfg.dp_clip, mia_cfg.dp_noise_scale,
                 np.random.default_rng([seed, 0, 0, 0xDF]))
        np.testing.assert_allclose(dp_target.theta - init, expected, rtol=0, atol=1e-12)

    def test_mia_nonmembers_are_a_seeded_test_draw(self, cfg_path):
        # the test split is ordered by group, so its head is one group; the
        # pool is a seeded random draw, never larger than the test split
        cfg = load_config(cfg_path)
        train, test = cli.build_data(cfg)
        draw = np.random.default_rng([1, 0x4E4D]).permutation(len(test))
        for n in (cfg.mia_overfit_size, len(test) + 5):
            nonmembers = mia_pools(replace(cfg, mia_overfit_size=n), train, test, 1)[1]
            np.testing.assert_array_equal(nonmembers.X, test.X[draw[:n]])
        assert len(nonmembers) == len(test)

    def test_default_poison_target_has_samples(self, tmp_path):
        # group 1, the smallest, is empty; the default target must be a
        # group with samples to clone (group 3, the smallest of the rest)
        p = tmp_path / "gap.cfg"
        p.write_text(TINY.replace("samples_per_group = 30, 30, 30, 30",
                                  "samples_per_group = 60, 0, 40, 30"))
        out = tmp_path / "out"
        assert main(["attack", "--config", str(p), "--kind", "poisoning",
                     "--out", str(out), "--seed", "1"]) == 0
        rows = (out / "attacks.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["poisoning", "fedavg"],
                                                    ["poisoning", "resfl"]]

    def test_aia_and_sweep_skip_an_empty_group(self, tmp_path):
        # group 1 has no samples, so no probe batch: the AIA infers among
        # the other three groups, in attack and in sweep alike
        p = tmp_path / "gap.cfg"
        p.write_text(TINY.replace("samples_per_group = 30, 30, 30, 30",
                                  "samples_per_group = 60, 0, 40, 30"))
        for command in (["attack", "--kind", "aia"], ["sweep"]):
            out = tmp_path / command[0]
            assert main([*command, "--config", str(p), "--out", str(out),
                         "--seed", "1"]) == 0, command
        aia = (tmp_path / "attack" / "attacks.csv").read_text().splitlines()[1]
        assert aia.split(",")[:3] == ["aia", "init", "1"]
        assert 0.0 <= float(aia.split(",")[3]) <= 1.0

    def test_each_listed_cell_trains_once_on_the_configured_network(
            self, cfg_path, tmp_path, monkeypatch):
        # TINY sets hidden_dims = 8, which every cell must train, not the
        # (32, 32) default: per seed the shadow model and the two MIA
        # targets (1 client, no evaluation set), and per (algorithm, seed)
        # a clean, a Byzantine and a poisoned run
        trained = []

        def recording(config, algorithm, seed, shards, eval_samples, byzantine=None):
            result = run_experiment(config, algorithm, seed, shards, eval_samples,
                                    byzantine)
            trained.append((algorithm, seed, shards, eval_samples is None, byzantine,
                            result[0].spec.hidden_dims))
            return result

        monkeypatch.setattr(cli, "run_experiment", recording)
        assert main(["attack", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert len(trained) == 2 * (3 + 2 * 3)
        assert {hidden for *_, hidden in trained} == {(8,)}
        # no two cells share their arguments (shard lists by identity)
        assert len({(algo, seed, tuple(map(id, shards)), mia, byzantine)
                    for algo, seed, shards, mia, byzantine, _ in trained}) == len(trained)
        for seed in (1, 2):
            mine = [cell for cell in trained if cell[1] == seed]
            assert sorted(algo for algo, _, _, mia, *_ in mine if mia) \
                == ["fedavg", "fedavg", "fedavg_dp"]
            # the paired cells of a seed train on two shard lists: the clean
            # one, which every algorithm's clean and Byzantine runs share,
            # and one poisoned copy, which its poisoned runs share
            by_list = {}
            for algo, _, shards, mia, byzantine, _ in mine:
                if not mia:
                    by_list.setdefault(id(shards), []).append((algo, byzantine is not None))
            assert sorted(map(sorted, by_list.values()), key=len) == [
                [("fedavg", False), ("resfl", False)],
                [("fedavg", False), ("fedavg", True), ("resfl", False), ("resfl", True)]]

    def test_only_commands_that_train_on_shards_partition(self, tmp_path, capsys):
        # 180 training samples cannot fill 40 shards; the MIA and the AIA
        # train on no shards, so they run, and run fails on the partition
        p = tmp_path / "many.cfg"
        p.write_text(DEGENERATE.replace("local_iterations = 1\neta = 1e150",
                                        "local_iterations = 2")
                     .replace("num_clients = 2", "num_clients = 40"))
        for kind in ("mia", "aia"):
            assert main(["attack", "--config", str(p), "--kind", kind,
                         "--out", str(tmp_path / kind)]) == 0, kind
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 1
        assert "could not produce non-empty shards" in capsys.readouterr().err


class TestSweepAndReport:
    def test_rows_run_in_sorted_order(self, tmp_path):
        p = tmp_path / "sweep.cfg"
        p.write_text(TINY + "\n[sweep]\nrows = 1,1; 0,1; 1,0; 0,0\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(p), "--out", str(out),
                     "--seed", "1"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda1,lambda_adv,accuracy,di_dev,delta_eop,mia_sr,aia_sr"
        cells = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert cells == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        assert load_config(out / "config.cfg") == load_config(p)

    def test_report_recomputes_summary(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        original = (out / "summary").read_bytes()
        (out / "summary").unlink()
        assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
        # metrics.csv holds the exact values, so report reproduces run's bytes
        assert (out / "summary").read_bytes() == original

    def test_report_of_a_seed_without_rows_fails_and_keeps_summary(self, cfg_path, tmp_path,
                                                                   capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "1"]) == 0
        original = (out / "summary").read_bytes()
        assert main(["report", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "9"]) == 1
        assert "no rows of seeds 9" in capsys.readouterr().err
        assert (out / "summary").read_bytes() == original

    def test_report_keeps_a_cell_that_stopped_early(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        head = "algo,seed,round,accuracy,acc_g1,acc_g2,di_dev,delta_eop,eod,ufm_mean,unc_var"
        (out / "metrics.csv").write_text("\n".join([
            head,
            "resfl,1,0,0.500000,0.5,0.5,0.1,0.1,0.1,0.2,0.01",
            "resfl,1,1,0.700000,0.7,0.7,0.3,0.3,0.3,0.4,0.03",
            "resfl,2,0,0.600000,0.6,0.6,0.2,0.2,0.2,nan,0.02",
        ]) + "\n")
        assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary").read_text())
        assert summary["resfl"]["seeds"] == [1, 2]
        assert summary["resfl"]["accuracy"] == pytest.approx(0.65, abs=1e-12)
        assert summary["resfl"]["eod"] == pytest.approx(0.25, abs=1e-12)
        assert summary["resfl"]["ufm_mean"] is None
        # report trains nothing, so it writes no config
        assert not (out / "config.cfg").exists()
