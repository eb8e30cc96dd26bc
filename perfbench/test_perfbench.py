"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
import tracer as tracing
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload at a few seconds' size; the accuracy floor is for the
    full size, so it is dropped."""
    return dataclasses.replace(WORKLOADS[name], rounds=2, mia_steps=20, aia_trials=5,
                               accuracy_floor=0.0)


def assert_metrics(result, expected):
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float | int), m["name"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    report = run.benchmark(tiny(name), seed=3, seconds=0, trace=False, work=tmp_path)
    assert_metrics(report["result"], SPEC["end_to_end"])
    assert len(report["info"]["wall_s_all"]) == run.MIN_PASSES
    assert all(m["value"] > 0 for m in report["result"]["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_meets_identities(name, tmp_path):
    report = run.benchmark(tiny(name), seed=3, seconds=0, trace=True, work=tmp_path)
    assert_metrics(report["result"], SPEC["per_layer"])
    assert report["info"]["problems"] == []
    tracing.assert_untraced()


def test_default_cell_counts_match_the_identities(tmp_path):
    run.import_program()
    from resfl_sim import cli
    wl = tiny("fed-default")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(wl.config_text(3))
    with tracing.Tracer() as tracer:
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    R, K, L = wl.rounds, wl.num_clients, wl.local_iterations
    assert len(tracer.cells) == 2
    assert tracer.stats["adversarial.local_train_step"].calls == 2 * R * K * L
    assert tracer.stats["network.forward_batch"].calls == 2 * (2 * R * K * L + R * K + R)
    assert tracer.stats["datasets.stack"].calls == 2 * (2 * R * K + R)
    assert tracer.stats["fairness.group_uncertainties"].calls == 2 * (R * K + R)
    assert tracing.identity_errors(tracer) == []
    tracing.assert_untraced()


def test_identities_catch_an_unwrapped_binding_site(tmp_path):
    run.import_program()
    from resfl_sim import adversarial, cli, network
    wl = tiny("fed-default")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(wl.config_text(3))
    with tracing.Tracer() as tracer:
        adversarial.forward_batch = network.forward_batch.__wrapped__
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    errors = tracing.identity_errors(tracer)
    assert any("network.forward_batch" in e for e in errors)
    tracing.assert_untraced()


def test_untraced_check_finds_a_left_wrapper():
    run.import_program()
    from resfl_sim import datasets
    tracer = tracing.Tracer().__enter__()
    try:
        with pytest.raises(RuntimeError, match="left installed"):
            tracing.assert_untraced()
    finally:
        tracer.__exit__(None, None, None)
    tracing.assert_untraced()
    assert not hasattr(datasets.stack, tracing.MARKER)


def test_nominal_steps_count_the_configured_work():
    wl = WORKLOADS["fed-default"]
    assert wl.nominal_steps == 2 * wl.rounds * 4 * 50
    atk = WORKLOADS["attack"]
    assert atk.nominal_steps == (3 * atk.mia_steps + 4 + atk.aia_trials
                                 + 2 * 2 * 2 * atk.rounds * 4 * 50)
