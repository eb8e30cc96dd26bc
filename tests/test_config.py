"""Config file parsing: schema validation, defaults, sweep grids."""

import pytest

from resfl_sim.config import (
    DEFAULT_SWEEP_ROWS,
    ConfigError,
    ExperimentConfig,
    load_config,
    normalized_text,
    parse_config_text,
)

GOOD = """\
[experiment]
seeds = 1, 2, 3
algorithms = fedavg, resfl

[data]
input_dim = 10
samples_per_group = 100, 100, 100, 100
group_means = 0,0; -0.1,-0.1; -0.2,-0.2; -0.4,-0.4
attr_leak = 0.3

[federation]
rounds = 20
eta = 0.005
lambda_adv = 0.5
hidden_dims = 16, 16
"""


def write_cfg(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return p


class TestParsing:
    def test_full_parse(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, GOOD))
        assert cfg.seeds == (1, 2, 3)
        assert cfg.algorithms == ("fedavg", "resfl")
        assert cfg.synth.input_dim == 10
        assert cfg.synth.samples_per_group == (100, 100, 100, 100)
        assert cfg.synth.group_means[3] == (-0.4, -0.4)
        assert cfg.rounds == 20
        assert cfg.eta == 0.005
        assert cfg.hidden_dims == (16, 16)
        # untouched knobs keep their defaults
        assert cfg.batch_size == 64
        assert cfg.byzantine_fraction == 0.25

    def test_absent_keys_take_the_field_defaults(self, tmp_path):
        text = "[experiment]\nseeds = 7\n[attack]\nkinds = mia\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg == ExperimentConfig(seeds=(7,), attack_kinds=("mia",),
                                       raw=parse_config_text(text))

    def test_comments_and_blank_lines_ignored(self):
        parsed = parse_config_text(
            "# leading comment\n[experiment]\n\nseeds = 5  # five\n")
        assert parsed["experiment"]["seeds"] == (5,)

    def test_federation_config_construction(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, GOOD))
        fc = cfg.federation_config("resfl", seed=2)
        assert fc.aggregator == "resfl"
        assert fc.seed == 2
        assert fc.rounds == 20
        assert fc.lambda_adv == 0.5
        fc_dp = cfg.federation_config("fedavg_dp", seed=1)
        assert fc_dp.dp_epsilon == 0.1 and fc_dp.dp_clip == 1.0
        with pytest.raises(ConfigError):
            cfg.federation_config("krum", seed=0)


class TestErrors:
    def test_unknown_section_line_anchored(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section"):
            parse_config_text("[bogus]\n")

    def test_unknown_key_line_anchored(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'etta'"):
            parse_config_text("[federation]\netta = 0.1\n")

    def test_duplicate_key_line_anchored(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'rounds'"):
            parse_config_text("[federation]\nrounds = 5\nrounds = 6\n")

    def test_bad_value_line_anchored(self):
        with pytest.raises(ConfigError, match=r"line 2: bad value for 'rounds'"):
            parse_config_text("[federation]\nrounds = many\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match=r"line 1: key outside any section"):
            parse_config_text("rounds = 5\n")

    def test_missing_seeds_named(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config_text("[federation]\nrounds = 5\n")

    def test_unknown_algorithm(self, tmp_path):
        bad = "[experiment]\nseeds = 1\nalgorithms = krum\n"
        with pytest.raises(ConfigError, match="krum"):
            load_config(write_cfg(tmp_path, bad))

    def test_invalid_data_section_surfaces(self, tmp_path):
        bad = "[experiment]\nseeds = 1\n[data]\nattr_leak = 2.0\n"
        with pytest.raises(ConfigError, match=r"\[data\]"):
            load_config(write_cfg(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


class TestSweep:
    def test_grid_cross_product(self, tmp_path):
        text = GOOD + "\n[sweep]\nlambda1_grid = 0, 1\nlambda_adv_grid = 0, 1\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.sweep_rows == ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))

    def test_explicit_rows(self, tmp_path):
        text = GOOD + "\n[sweep]\nrows = 0.1,0.01; 1,1\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.sweep_rows == ((0.1, 0.01), (1.0, 1.0))

    def test_default_rows(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, GOOD))
        assert cfg.sweep_rows == DEFAULT_SWEEP_ROWS
        assert len(DEFAULT_SWEEP_ROWS) == 7

    def test_malformed_rows_rejected(self, tmp_path):
        text = GOOD + "\n[sweep]\nrows = 0.1,0.01,5\n"
        with pytest.raises(ConfigError, match="pairs"):
            load_config(write_cfg(tmp_path, text))

    def test_negative_grid_rejected(self, tmp_path):
        text = GOOD + "\n[sweep]\nlambda1_grid = -1\n"
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, text))


class TestNormalizedText:
    def test_stable_echo(self, tmp_path):
        a = normalized_text(load_config(write_cfg(tmp_path, GOOD)))
        b = normalized_text(load_config(write_cfg(tmp_path, GOOD)))
        assert a == b
        assert "[experiment]" in a and "seeds = 1, 2, 3" in a
        # keys are sorted within a section
        fed = a.split("[federation]")[1]
        keys = [ln.split(" =")[0] for ln in fed.strip().splitlines()]
        assert keys == sorted(keys)
