"""resfl-sim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's config is generated from
``--seed`` (data seed and training seed), then the workload's CLI
command (``resfl_sim.cli.main``) is repeated for ``--seconds`` seconds,
at least twice, and every pass's outputs are checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it record the environment,
the output hashes and the raw timings.

With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
wall time per pass, local steps per second, peak memory). With
``--trace 1`` untraced and traced passes alternate, and the metrics are
per-module counts and times from the traced passes plus the tracing
overhead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Workload, check_outputs, output_hashes  # noqa: E402

# In-process repeats of the set-up before each pass; their median over
# the run is setup_s. Spreading them over the run samples the machine's
# state for as long as the passes do.
SETUP_REPEATS = 5
MIN_PASSES = 2


def import_program() -> float:
    """Import resfl_sim from the checkout's src/ and return the seconds taken."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    start = perf_counter()
    import resfl_sim.cli  # noqa: F401
    return perf_counter() - start


def time_setup(cfg_path: Path) -> float:
    """The set-up every command does before training: load the config,
    build the data and partition it over the clients."""
    from resfl_sim import cli, config, datasets
    start = perf_counter()
    cfg = config.load_config(cfg_path)
    train, _ = cli.build_data(cfg)
    datasets.partition(train, cfg.num_clients, cfg.partition_beta, seed=cfg.seeds[0])
    return perf_counter() - start


class Outcome:
    """Operations attempted and failed; an operation is a set-up, a CLI
    command or a cell of one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def run_pass(wl: Workload, seed: int, cfg_path: Path, out: Path, outcome: Outcome,
             reference: dict | None) -> tuple[float, dict]:
    """One CLI command, timed and checked. Returns (wall seconds, hashes)."""
    from resfl_sim import cli
    gc.collect()
    start = perf_counter()
    code = cli.main([wl.command, "--config", str(cfg_path), "--out", str(out)])
    wall = perf_counter() - start
    hashes = output_hashes(out)
    problems = [] if code == 0 else [f"exit code {code}"]
    if reference is not None and hashes != reference:
        problems.append("outputs differ from the first pass of this run")
    outcome.record(f"{wl.command} pass", problems)
    cells = check_outputs(wl, seed, out) if code == 0 else {
        c: ["command failed"] for c in wl.cells}
    for cell, cell_problems in cells.items():
        outcome.record("/".join(cell), cell_problems)
    return wall, hashes


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "seed": seed,
        "git_revision": _git_revision(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, if that is the BLAS."""
    import ctypes
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        try:
            fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _git_revision() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(stats: list[dict[str, tracing.Stat]]) -> dict:
    """Per-layer metrics from the traced passes: counts and self time per
    pass (mean over passes), per-call percentiles over all calls."""
    import numpy as np
    n = len(stats)

    def per_pass(key, attr):
        return sum(getattr(s[key], attr) for s in stats) / n

    def pct(key, q):
        calls = [d for s in stats for d in s[key].durations]
        return float(np.percentile(calls, q)) * 1e6 if calls else 0.0

    out = {}
    for key, stat_names in LAYER_METRICS.items():
        for stat in stat_names:
            name = f"{key}.{stat}"
            if stat == "calls":
                out[name] = metric(per_pass(key, "calls"), "count")
            elif stat == "failed":
                out[name] = metric(per_pass(key, "failed"), "count")
            elif stat == "self_ms":
                out[name] = metric(per_pass(key, "self_s") * 1e3, "ms")
            elif stat == "us_p50":
                out[name] = metric(pct(key, 50), "us")
            elif stat == "us_p90":
                out[name] = metric(pct(key, 90), "us")
    out["network.flops_computed"] = metric(per_pass("network.forward_batch", "flops")
                                           + per_pass("network.backward_batch", "flops"),
                                           "flop")
    return out


LAYER_METRICS = {
    "network.forward_batch": ("calls", "self_ms"),
    "network.backward_batch": ("self_ms",),
    "network.sgd_step": ("self_ms",),
    "evidential.evidential_terms_batch": ("self_ms",),
    "evidential.evidence_batch": ("calls",),
    "adversarial.local_train_step": ("calls", "us_p50", "us_p90"),
    "adversarial.composite_gradients": ("self_ms",),
    "fairness.group_uncertainties": ("calls", "self_ms"),
    "datasets.stack": ("calls", "self_ms"),
    "datasets.generate_dataset": ("calls", "self_ms"),
    "datasets.partition": ("self_ms",),
    "datasets.poison": ("self_ms",),
    "federation.run_experiment": ("calls",),
    "federation.client_round": ("calls", "failed", "self_ms"),
    "federation.shard_ufm": ("self_ms",),
    "federation._evaluate": ("self_ms",),
    "federation.aggregate": ("self_ms",),
    "metrics.accuracy_by_group": ("self_ms",),
    "metrics.confusion_by_group": ("self_ms",),
    "metrics.write_metrics": ("self_ms",),
    "attacks.train_centralized": ("us_p50",),
    "attacks.mia_run": ("self_ms",),
    "attacks.aia_run": ("self_ms",),
    "attacks.byzantine_run": ("self_ms",),
    "attacks.poisoning_run": ("self_ms",),
    "cli.build_data": ("calls", "self_ms"),
    "cli._single_run": ("us_p50",),
}


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload and return everything the run prints."""
    import_s = import_program()
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / f"{wl.name}.cfg"
    cfg_path.write_text(wl.config_text(seed), encoding="utf-8")
    outcome = Outcome()

    setups, walls, traced_walls, traced_stats, reference = [], [], [], [], None
    start = perf_counter()
    i = 0
    while i < MIN_PASSES or perf_counter() - start < seconds:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            try:
                setups.append(time_setup(cfg_path))
                outcome.record("setup", [])
            except Exception as exc:  # a partition RuntimeError counts as failed
                outcome.record("setup", [f"{type(exc).__name__}: {exc}"])
        out = work / f"pass{i}"
        if trace and i % 2 == 1:
            with tracing.Tracer() as tracer:
                wall, hashes = run_pass(wl, seed, cfg_path, out, outcome, reference)
            traced_walls.append(wall)
            traced_stats.append(tracer.stats)
            outcome.record("trace coverage", tracing.identity_errors(tracer))
        else:
            tracing.assert_untraced()
            wall, hashes = run_pass(wl, seed, cfg_path, out, outcome, reference)
            walls.append(wall)
        reference = reference or hashes
        shutil.rmtree(out, ignore_errors=True)
        i += 1

    if trace:
        metrics = layer_metrics(traced_stats)
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(traced_walls) / statistics.median(walls), "ratio")
    else:
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": metric(statistics.median(setups) if setups else float("nan"), "s"),
            "wall_s": metric(wall_s, "s"),
            "steps_per_s": metric(wl.nominal_steps / wall_s, "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
        }
    return {
        "info": {
            "workload": wl.name,
            "import_s": import_s,
            "setup_s_all": setups,
            "wall_s_all": walls,
            "traced_wall_s_all": traced_walls,
            "nominal_steps_per_pass": wl.nominal_steps,
            "outputs_sha256": reference,
            "problems": outcome.problems,
        },
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "resfl_sim").is_dir():
        print(f"error: no resfl_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), work)
        env = environment(args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"env": env}))
    print(json.dumps({"info": report["info"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
