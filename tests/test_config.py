"""Config file parsing: schema validation, defaults, sweep rows."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from resfl_sim.config import (
    _FIELD,
    _SCHEMA,
    AGGREGATORS,
    DEFAULT_SWEEP_ROWS,
    ConfigError,
    ExperimentConfig,
    load_config,
    normalized_text,
    parse_config_text,
)
from resfl_sim.datasets import generate_dataset, partition
from resfl_sim.federation import ByzantineSpec, run_experiment
from resfl_sim.network import NetworkSpec

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
        assert cfg.input_dim == 10
        assert cfg.samples_per_group == (100, 100, 100, 100)
        assert cfg.group_means[3] == (-0.4, -0.4)
        assert cfg.rounds == 20
        assert cfg.eta == 0.005
        assert cfg.hidden_dims == (16, 16)
        # untouched knobs keep their defaults
        assert cfg.batch_size == 64
        assert cfg.byzantine_fraction == 0.25

    def test_absent_keys_take_the_field_defaults(self, tmp_path):
        text = "[experiment]\nseeds = 7\n[attack]\nkinds = mia\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg == ExperimentConfig(seeds=(7,), attack_kinds=("mia",))

    def test_comments_and_blank_lines_ignored(self):
        parsed = parse_config_text(
            "# leading comment\n[experiment]\n\nseeds = 5  # five\n")
        assert parsed["experiment"]["seeds"] == (5,)


# every [federation] key, each set to a value that is not its default
FEDERATION_VALUES = dict(
    num_clients=3, rounds=7, local_iterations=4, batch_size=8, eta=0.02, eta_phi=0.3,
    lambda1=0.7, lambda_adv=0.9, dp_epsilon=0.5, dp_clip=2.5, server_lr=0.4)

# every config key, each set to a valid value that is not its default
EVERY_KEY = {
    "experiment": {"seeds": "3, 4", "algorithms": "fedavg_dp", "out_dir": "elsewhere"},
    "data": {"input_dim": "5", "num_classes": "3", "num_groups": "3",
             "samples_per_group": "10, 0, 20", "group_means": "0,0,0; 0,0,0; 0,-0.1,-0.2",
             "noise_std": "0.5", "attr_leak": "0.25", "label_flip_noise": "0, 0.1, 0.2",
             "partition_beta": "2", "test_fraction": "0.3"},
    "federation": {**FEDERATION_VALUES, "hidden_dims": "12, 6"},
    "attack": {"kinds": "aia, mia", "mia_overfit_size": "5", "mia_overfit_steps": "7",
               "aia_trials": "9", "byzantine_fraction": "0.5", "byzantine_scale": "3",
               "poison_group": "0", "poison_rate": "0.5"},
    "sweep": {"rows": "0.5,0.5"},
}
EVERY_KEY_TEXT = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                         for section, keys in EVERY_KEY.items())

# a small cell on which each of those values changes what is trained
CELL = ExperimentConfig(seeds=(1,), input_dim=6, samples_per_group=(30,) * 4,
                        rounds=2, local_iterations=3, batch_size=16, eta=0.01,
                        lambda_adv=0.5)


def train_cell(cfg, algorithm):
    """The final global theta of the seed-0 cell of ``cfg`` on CELL's data."""
    data = generate_dataset(CELL, seed=0)
    shards = partition(data, cfg.num_clients, cfg.partition_beta, seed=0)
    return run_experiment(cfg, algorithm, 0, shards, None)[0].theta


class TestSingleSourceOfDefaults:
    @pytest.mark.parametrize("cls", [NetworkSpec, ByzantineSpec])
    def test_library_settings_have_no_defaults(self, cls):
        for f in dataclasses.fields(cls):
            assert f.default is dataclasses.MISSING, f.name
            assert f.default_factory is dataclasses.MISSING, f.name

    def test_every_key_has_one_field_and_sets_it(self, tmp_path):
        assert {s: set(keys) for s, keys in EVERY_KEY.items()} == {
            s: set(keys) for s, keys in _SCHEMA.items()}
        # the field of each key, through the one rename map; every field is a key's
        fields = {_FIELD.get(key, key) for keys in _SCHEMA.values() for key in keys}
        assert fields == {f.name for f in dataclasses.fields(ExperimentConfig)}
        parsed = parse_config_text(EVERY_KEY_TEXT)
        cfg = load_config(write_cfg(tmp_path, EVERY_KEY_TEXT))
        defaults = ExperimentConfig(seeds=(1,))
        for section, keys in _SCHEMA.items():
            for key in keys:
                name = _FIELD.get(key, key)
                value = parsed[section][key]
                assert getattr(cfg, name) == value != getattr(defaults, name), key

    def test_every_federation_key_reaches_the_cell(self):
        # each [federation] key, set alone, changes the model of some algorithm
        assert set(FEDERATION_VALUES) | {"hidden_dims"} == set(_SCHEMA["federation"])
        base = {algo: train_cell(CELL, algo) for algo in AGGREGATORS}
        for key, value in {**FEDERATION_VALUES, "hidden_dims": (12, 6)}.items():
            cfg = dataclasses.replace(CELL, **{key: value})
            assert getattr(CELL, key) != value
            assert any(not np.array_equal(train_cell(cfg, algo), base[algo])
                       for algo in AGGREGATORS), key

    def test_unset_rates_resolve_in_one_place(self):
        # eta_phi and server_lr left unset follow eta and 1 / num_clients
        # where they are read, also through a replace of those two
        cfg = dataclasses.replace(CELL, eta=0.03, num_clients=3)
        explicit = dataclasses.replace(cfg, eta_phi=0.03, server_lr=1.0 / 3)
        for algo in AGGREGATORS:
            np.testing.assert_array_equal(train_cell(cfg, algo), train_cell(explicit, algo))

    def test_no_setting_is_none_after_load(self, tmp_path):
        # GOOD leaves out poison_group, eta_phi and server_lr, whose
        # defaults derive from other settings
        cfg = load_config(write_cfg(tmp_path, GOOD))
        unset = {f.name for f in dataclasses.fields(cfg) if getattr(cfg, f.name) is None}
        # the two rates follow eta and num_clients, also through a
        # dataclasses.replace of those, so the cell resolves them where
        # it reads them (test_unset_rates_resolve_in_one_place)
        assert unset == {"eta_phi", "server_lr"}
        assert cfg.poison_group == 0

    def test_default_poison_group_is_the_smallest_group_with_samples(self):
        def target(*counts):
            # a 1-sample MIA member set, which 11 training samples hold
            return ExperimentConfig(
                seeds=(1,), samples_per_group=counts, mia_overfit_size=1).poison_group
        assert target(60, 0, 40, 30) == 3
        assert target(5, 0, 3, 3) == 2  # the lowest id on a tie
        assert target(2000, 1500, 1000, 500) == 3


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

    def test_unknown_attack_kind(self, tmp_path):
        bad = "[experiment]\nseeds = 1\n[attack]\nkinds = mia, bogus\n"
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write_cfg(tmp_path, bad))

    def test_invalid_data_section_surfaces(self, tmp_path):
        bad = "[experiment]\nseeds = 1\n[data]\nattr_leak = 2.0\n"
        with pytest.raises(ConfigError, match=r"\[data\]"):
            load_config(write_cfg(tmp_path, bad))

    @pytest.mark.parametrize("field, value", [
        ("eta_phi", 0.0), ("eta_phi", -0.1), ("lambda1", -1.0), ("lambda_adv", -0.01),
        # checked whatever the algorithms; apply_dp trusts them
        ("dp_epsilon", 0.0), ("dp_epsilon", 1.0), ("dp_clip", -1.0)])
    def test_rates_and_weights_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"\[federation\] {field} must be"):
            ExperimentConfig(seeds=(1,), **{field: value})

    @pytest.mark.parametrize("section, line", [
        ("federation", "eta = inf"), ("data", "noise_std = nan"),
        ("data", "label_flip_noise = 0, -inf, 0, 0"), ("data", "group_means = 0,0; 0,nan"),
        ("sweep", "rows = 0.1,inf")])
    def test_non_finite_float_line_anchored(self, section, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"line 2: bad value for '{key}': .* finite"):
            parse_config_text(f"[{section}]\n{line}\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_mia_members_leave_the_shadow_minimum(self):
        # the shadow pool is the training split past the members, and it
        # needs 4 samples: with 11 samples the MIA can take 7 members, not 8
        spg = (5, 0, 3, 3)
        assert ExperimentConfig(seeds=(1,), samples_per_group=spg,
                                mia_overfit_size=7).mia_overfit_size == 7
        with pytest.raises(ConfigError, match=r"\[attack\] mia_overfit_size must be "
                                              r">= 1 and <= 7, got 8"):
            ExperimentConfig(seeds=(1,), samples_per_group=spg, mia_overfit_size=8)


class TestSweep:
    @pytest.mark.parametrize("key", ["lambda1_grid", "lambda_adv_grid"])
    def test_grid_keys_rejected(self, tmp_path, key):
        # rows is the one [sweep] format; a grid key is unknown, even beside rows
        text = GOOD + f"\n[sweep]\nrows = 0.1,0.01\n{key} = 0, 1\n"
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[sweep\]"):
            load_config(write_cfg(tmp_path, text))

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

    def test_negative_row_value_rejected(self, tmp_path):
        text = GOOD + "\n[sweep]\nrows = 0.1,0.01; -1,1\n"
        with pytest.raises(ConfigError, match=r"\[sweep\]"):
            load_config(write_cfg(tmp_path, text))


class TestNormalizedText:
    def test_stable_echo(self, tmp_path):
        a = normalized_text(load_config(write_cfg(tmp_path, GOOD)))
        b = normalized_text(load_config(write_cfg(tmp_path, GOOD)))
        assert a == b
        assert "[experiment]" in a and "seeds = 1, 2, 3" in a
        # keys are sorted within a section
        fed = a.split("[federation]")[1].split("[")[0]
        keys = [ln.split(" =")[0] for ln in fed.strip().splitlines()]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("text", [
        (Path(__file__).resolve().parents[1] / "configs" / "default.cfg").read_text(),
        EVERY_KEY_TEXT, "[experiment]\nseeds = 4, 2\n",
        # a value that a 6-digit echo would round
        GOOD.replace("-0.1,-0.1", "-0.1234567,-0.1")],
        ids=["default.cfg", "every-key", "seeds-only", "seven-digit-mean"])
    def test_written_config_sets_every_key_and_loads_back_equal(self, tmp_path, text):
        cfg = load_config(write_cfg(tmp_path, text))
        written = tmp_path / "config.cfg"
        written.write_text(normalized_text(cfg))
        assert load_config(written) == cfg
        # every key, defaults included, but the rates left to follow others
        parsed = parse_config_text(written.read_text())
        assert {key for keys in parsed.values() for key in keys} == {
            key for keys in _SCHEMA.values() for key in keys
            if getattr(cfg, _FIELD.get(key, key)) is not None}
