"""CLI smoke tests: subcommands, outputs, exit codes, determinism."""

import json
import math
import warnings

import pytest

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

    def test_jobs_flag_does_not_change_bytes(self, cfg_path, tmp_path):
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg_path), "--out", str(o1)])
        main(["run", "--config", str(cfg_path), "--out", str(o2), "--jobs", "2"])
        assert (o1 / "metrics.csv").read_bytes() == (o2 / "metrics.csv").read_bytes()

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
        rounds = {line.split(",")[2] for line in
                  (out / "metrics.csv").read_text().strip().splitlines()[1:]}
        assert rounds == {"0"}
        summary = json.loads((out / "summary").read_text())
        assert set(summary) == {"fedavg", "resfl"}
        assert math.isnan(summary["resfl"]["ufm_mean"])
        assert 0.0 <= summary["resfl"]["accuracy"] <= 1.0

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
        for algo in baseline:
            for col, val in baseline[algo].items():
                if col == "seeds":
                    continue
                # the report reads back the 6-decimal CSV, so agreement
                # is limited to that precision
                assert regenerated[algo]["final"][col] == pytest.approx(val, abs=1e-6)
