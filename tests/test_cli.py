"""CLI smoke tests: subcommands, outputs, exit codes, determinism."""

import json
import math
import warnings

import pytest

from resfl_sim import cli
from resfl_sim.cli import main

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
    "algorithms = krum": ("algorithms = fedavg, resfl", "algorithms = fedavg, krum"),
    "test_fraction = 1": ("attr_leak = 0.5", "attr_leak = 0.5\ntest_fraction = 1"),
    "rounds = 0": ("rounds = 2", "rounds = 0"),
    "rounds = -1": ("rounds = 2", "rounds = -1"),
    "local_iterations = -1": ("local_iterations = 2", "local_iterations = -1"),
    "hidden_dims = (none)": ("hidden_dims = 8", "hidden_dims ="),
    "server_lr = -1": ("eta = 0.01", "eta = 0.01\nserver_lr = -1"),
    "server_lr = 0": ("eta = 0.01", "eta = 0.01\nserver_lr = 0"),
    "kinds = mia, bogus": ("[attack]", "[attack]\nkinds = mia, bogus"),
    "eta = 0": ("eta = 0.01", "eta = 0"),
    "eta_phi = 0": ("eta = 0.01", "eta = 0.01\neta_phi = 0"),
    "lambda1 = -1": ("eta = 0.01", "eta = 0.01\nlambda1 = -1"),
    "lambda_adv = -0.1": ("eta = 0.01", "eta = 0.01\nlambda_adv = -0.1"),
    "batch_size = 0": ("batch_size = 16", "batch_size = 0"),
    "hidden_dims = 0": ("hidden_dims = 8", "hidden_dims = 0"),
    "num_clients = 0": ("rounds = 2", "rounds = 2\nnum_clients = 0"),
    "dp_clip = 0": ("eta = 0.01", "eta = 0.01\ndp_clip = 0"),
    "dp_epsilon = 0": ("eta = 0.01", "eta = 0.01\ndp_epsilon = 0"),
    "rows = -1,0.5": ("[attack]", "[sweep]\nrows = -1,0.5\n\n[attack]"),
    "rows = 0.1,-1": ("[attack]", "[sweep]\nrows = 0.1,-1\n\n[attack]"),
    "partition_beta = 0": ("attr_leak = 0.5", "attr_leak = 0.5\npartition_beta = 0"),
    "mia_overfit_size = 0": ("mia_overfit_size = 10", "mia_overfit_size = 0"),
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
}


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
        assert (out / "config.cfg").exists()

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
        assert math.isnan(summary["resfl"]["ufm_mean"])
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

    def test_report_without_run_fails(self, cfg_path, tmp_path):
        assert main(["report", "--config", str(cfg_path),
                     "--out", str(tmp_path / "empty")]) == 1


class TestAttack:
    def test_byzantine_rows(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["attack", "--config", str(cfg_path), "--kind", "byzantine",
                     "--out", str(out), "--seed", "1"]) == 0
        lines = (out / "attacks.csv").read_text().strip().splitlines()
        assert lines[0] == "attack,algo,seed,score,aux"
        algos = {line.split(",")[1] for line in lines[1:]}
        assert algos == {"fedavg", "resfl"}

    def test_mia_rows_and_rerun_identical(self, cfg_path, tmp_path):
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        for out in (o1, o2):
            assert main(["attack", "--config", str(cfg_path), "--kind", "mia",
                         "--out", str(out), "--seed", "1"]) == 0
        lines = (o1 / "attacks.csv").read_text().strip().splitlines()
        variants = {line.split(",")[1] for line in lines[1:]}
        assert variants == {"overfit", "fedavg_dp"}
        assert (o1 / "attacks.csv").read_bytes() == (o2 / "attacks.csv").read_bytes()

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

    def test_paired_runs_train_the_configured_network(self, cfg_path, tmp_path,
                                                      monkeypatch):
        # TINY sets hidden_dims = 8; the clean, Byzantine and poisoned runs
        # must all train that network, not the (32, 32) default
        import resfl_sim.attacks as attacks
        import resfl_sim.cli as cli
        trained = []

        def recording(run):
            def wrapper(*args, **kwargs):
                result = run(*args, **kwargs)
                trained.append(result[0].spec.hidden_dims)
                return result
            return wrapper

        monkeypatch.setattr(cli, "run_experiment", recording(cli.run_experiment))
        monkeypatch.setattr(attacks, "run_experiment", recording(attacks.run_experiment))
        for kind in ("byzantine", "poisoning"):
            assert main(["attack", "--config", str(cfg_path), "--kind", kind,
                         "--out", str(tmp_path / kind), "--seed", "1"]) == 0
        # per kind: a clean and an attacked run for each of the two algorithms
        assert trained == [(8,)] * 8


class TestSweepAndReport:
    def test_sweep_grid(self, tmp_path):
        p = tmp_path / "sweep.cfg"
        p.write_text(TINY + "\n[sweep]\nlambda1_grid = 0, 1\nlambda_adv_grid = 0, 1\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(p), "--out", str(out),
                     "--seed", "1"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda1,lambda_adv,accuracy,di_dev,delta_eop,mia_sr,aia_sr"
        cells = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert cells == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]

    def test_report_recomputes_summary(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        original = (out / "summary").read_bytes()
        (out / "summary").unlink()
        assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
        regenerated = json.loads((out / "summary").read_text())
        baseline = json.loads(original)
        assert set(regenerated) == set(baseline)
        for algo in baseline:
            assert regenerated[algo]["seeds"] == baseline[algo]["seeds"]
            for col, val in baseline[algo].items():
                if col == "seeds":
                    continue
                # the report reads back the 6-decimal CSV, so agreement
                # is limited to that precision
                assert regenerated[algo][col] == pytest.approx(val, abs=1e-6)

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
        assert math.isnan(summary["resfl"]["ufm_mean"])
