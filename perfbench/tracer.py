"""Per-module tracing from outside the program.

The tracer replaces each traced function with a timing wrapper at every
place a ``resfl_sim`` module binds it: ``from .network import
forward_batch`` gives ``adversarial``, ``federation`` and ``attacks``
bindings of their own, and ``backward_batch`` reaches ``forward_batch``
through ``network``'s namespace. It records calls, failed calls,
inclusive time per call and self time (inclusive time minus the time of
traced calls made inside it). The simulator is single-threaded with no
queues, so there is no wait time to record.

Installing returns every original on exit; ``assert_untraced`` checks
that none is left replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

MARKER = "__perfbench_traced__"

# module -> functions traced in it. Several functions may report under
# one name: "aggregate" is aggregate_fedavg, aggregate_resfl and apply_dp.
TARGETS = {
    "network": {"forward_batch": "forward_batch", "backward_batch": "backward_batch",
                "sgd_step": "sgd_step"},
    "evidential": {"evidential_terms_batch": "evidential_terms_batch",
                   "evidence_batch": "evidence_batch"},
    "adversarial": {"local_train_step": "local_train_step",
                    "composite_gradients": "composite_gradients"},
    "fairness": {"group_uncertainties": "group_uncertainties"},
    "datasets": {"stack": "stack", "generate_dataset": "generate_dataset",
                 "partition": "partition", "poison": "poison"},
    "federation": {"run_experiment": "run_experiment", "client_round": "client_round",
                   "shard_ufm": "shard_ufm", "_evaluate": "_evaluate",
                   "aggregate_fedavg": "aggregate", "aggregate_resfl": "aggregate",
                   "apply_dp": "aggregate"},
    "metrics": {"accuracy_by_group": "accuracy_by_group",
                "confusion_by_group": "confusion_by_group",
                "write_metrics": "write_metrics"},
    "attacks": {"train_centralized": "train_centralized", "mia_run": "mia_run",
                "aia_run": "aia_run", "byzantine_run": "byzantine_run",
                "poisoning_run": "poisoning_run"},
    "cli": {"build_data": "build_data", "_single_run": "_single_run"},
}


def _matmul_flops(params, X) -> int:
    """Multiply-add FLOPs of one forward pass, computed from shapes."""
    spec = params.spec
    n = X.shape[0] if getattr(X, "ndim", 1) > 1 else 1
    dims = (spec.input_dim,) + tuple(spec.hidden_dims)
    per_row = sum(a * b for a, b in zip(dims, dims[1:]))
    per_row += spec.latent_dim * (spec.num_classes + spec.num_groups)
    return 2 * n * per_row


# Computed FLOPs per call. The backward pass does two matmuls per forward
# matmul (weight and input gradients); its recomputed forward pass is a
# separate forward_batch call and counted there.
FLOPS = {
    "network.forward_batch": lambda args: _matmul_flops(args[0], args[1]),
    "network.backward_batch": lambda args: 2 * _matmul_flops(args[0], args[1]),
}


@dataclass
class Stat:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    flops: int = 0
    durations: list[float] = field(default_factory=list)


@dataclass
class Cell:
    """One run_experiment call and the counts taken inside it."""
    arguments: dict
    before: dict[str, tuple[int, int]]
    after: dict[str, tuple[int, int]]

    def delta(self, name: str) -> int:
        return self.after[name][0] - self.before[name][0]

    def failed(self, name: str) -> int:
        return self.after[name][1] - self.before[name][1]


class Tracer:
    """Context manager that times calls into resfl_sim's modules."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.cells: list[Cell] = []
        self.missing: set[str] = set()
        self._open: list[float] = []  # child time of each open traced call
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        targets = {}
        for modname in TARGETS:
            try:
                targets[modname] = importlib.import_module(f"resfl_sim.{modname}")
            except ModuleNotFoundError:
                targets[modname] = None
        modules = _package_modules()
        for modname, funcs in TARGETS.items():
            for fname, label in funcs.items():
                key = f"{modname}.{label}"
                stat = self.stats.setdefault(key, Stat())
                original = getattr(targets[modname], fname, None)
                if original is None:
                    self.missing.add(f"{modname}.{fname}")
                    continue
                wrapper = self._wrap(original, stat, FLOPS.get(key))
                if key == "federation.run_experiment":
                    wrapper = self._wrap_cell(original, wrapper)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, stat: Stat, flops):
        open_calls = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flops is not None:
                stat.flops += flops(args)
            open_calls.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                took = perf_counter() - start
                child = open_calls.pop()
                stat.calls += 1
                stat.self_s += took - child
                stat.durations.append(took)
                if open_calls:
                    open_calls[-1] += took

        setattr(traced, MARKER, True)
        return traced

    def _wrap_cell(self, fn, timed):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def cell(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            before = self.counts()
            try:
                return timed(*args, **kwargs)
            finally:
                self.cells.append(Cell(dict(bound.arguments), before, self.counts()))

        setattr(cell, MARKER, True)
        return cell

    def counts(self) -> dict[str, tuple[int, int]]:
        return {k: (s.calls, s.failed) for k, s in self.stats.items()}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "resfl_sim" or name.startswith("resfl_sim."))]


def assert_untraced() -> None:
    """Raise if any resfl_sim binding is still a tracing wrapper."""
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARKER, False):
                raise RuntimeError(f"tracing wrapper left installed at "
                                   f"{mod.__name__}.{attr}")


# Coverage identities: the calls a training cell of R rounds, K clients
# and L local steps must show when every binding site is wrapped. Each
# client round stacks its shard twice (training, shard_ufm) and runs one
# extra forward pass (shard_ufm); each step runs two (composite_gradients
# and the one backward_batch recomputes). Evaluation adds one stack,
# forward pass and group_uncertainties call per round, and so does every
# Byzantine client's corrupted-model UFM.
IDENTITIES = {
    "adversarial.local_train_step": lambda R, K, L, extra: R * K * L,
    "network.forward_batch": lambda R, K, L, extra: 2 * R * K * L + R * K + R * extra,
    "datasets.stack": lambda R, K, L, extra: 2 * R * K + R * extra,
    "fairness.group_uncertainties": lambda R, K, L, extra: R * K + R * extra,
}


def identity_errors(tracer: Tracer) -> list[str]:
    """Every broken coverage identity, over all cells the tracer saw.

    An identity whose function no longer exists in the program is
    skipped, so a change that deletes one does not fail the benchmark.
    """
    errors = []
    for i, cell in enumerate(tracer.cells):
        config = cell.arguments["config"]
        byzantine = cell.arguments.get("byzantine")
        extra = (cell.arguments.get("eval_samples") is not None) + (
            len(byzantine.client_ids) if byzantine is not None and byzantine.scale > 0 else 0)
        R, K, L = config.rounds, config.num_clients, config.local_iterations
        failed = cell.failed("federation.client_round")
        if failed:
            errors.append(f"cell {i}: client_round.failed = {failed}, expected 0")
        for name, expected in IDENTITIES.items():
            if name in tracer.missing:
                continue
            want, got = expected(R, K, L, extra), cell.delta(name)
            if got != want:
                errors.append(f"cell {i} (R={R}, K={K}, L={L}): {name}.calls = "
                              f"{got}, expected {want}")
    return errors
