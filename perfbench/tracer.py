"""Per-layer spans from wrappers around the program's public functions.

Each wrapper replaces a function at the place where the pipeline looks it
up (``evplan.sensitivity.solve_load_flow``, ``BoundedSimplex.solve``, ...).
A span's self time is its duration minus the time of the spans it caused;
a layer's busy time is the sum of its spans' self times. Spans are
aggregated per layer in memory as they close.

A function that no longer exists is listed in ``absent`` instead of
raising, so the benchmark keeps running when a layer is deleted.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (layer, where the pipeline looks the function up, attribute).
LAYERS = (
    ("instance", "evplan.instance", "prepare_instance"),
    ("loadflow", "evplan.instance", "solve_load_flow"),
    ("loadflow", "evplan.sensitivity", "solve_load_flow"),
    ("loadflow", "evplan.verify", "solve_load_flow"),
    ("sensitivity", "evplan.instance", "compute_sensitivities"),
    ("linear_grid", "evplan.instance", "linear_grid_constraints"),
    ("builder", "evplan.builder", "build_plan_model"),
    ("mps_io", "evplan.mps_io", "export_mps"),
    ("bnb", "evplan.solution", "solve_bnb"),
    ("presolve", "evplan.bnb", "presolve"),
    ("simplex", "evplan.simplex", "BoundedSimplex.solve"),
    ("solution", "evplan.presolve", "PresolveResult.postsolve"),
    ("solution", "evplan.solution", "solution_from_result"),
    ("verify", "evplan.verify", "verify_solution"),
    ("analysis", "evplan.analysis", "build_report"),
    ("oracle", "evplan.oracle", "brute_force_oracle"),
)


def _count_model(counts, model, args):
    counts["milp.rows"] += model.n_rows
    counts["milp.cols"] += model.n_cols
    counts["milp.nnz"] += model.A.nnz


def _count_presolve(counts, result, args):
    red = getattr(result, "reduced", None)
    if red is not None:
        counts["presolve.rows"] += red.n_rows
        counts["presolve.cols"] += red.n_cols
        counts["presolve.nnz"] += red.A.nnz


def _count_solve(counts, result, args):
    counts["bnb.nodes"] += result.nodes
    counts["bnb.lp_iterations"] += result.lp_iterations


def _count_grid_rows(counts, rows, args):
    counts["linear_grid.rows"] += len(rows)


def _count_export(counts, sidecar, args):
    counts["mps_io.bytes"] += os.path.getsize(os.fspath(args[1])) + os.path.getsize(sidecar)


# Counts read from a call's result and arguments after its span closes.
COUNTERS = {
    "builder": _count_model,
    "presolve": _count_presolve,
    "bnb": _count_solve,
    "linear_grid": _count_grid_rows,
    "mps_io": _count_export,
}


def resolve(module: str, attr: str):
    """(owner, name, function) for ``module.attr``; attr may be Class.method."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Install with ``install()``; spans are recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.nested = defaultdict(int)  # (parent layer, layer) -> spans
        self.spans = 0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [layer, child seconds]
        self._restore: list[tuple] = []

    def install(self, layers=LAYERS):
        for layer, module, attr in layers:
            try:
                owner, name, original = resolve(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(owner, name, self._wrap(layer, original))
            self._restore.append((owner, name, original))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def reset(self):
        self.busy.clear()
        self.calls.clear()
        self.counts.clear()
        self.nested.clear()
        self.spans = 0

    def _wrap(self, layer, original):
        tracer = self
        counter = COUNTERS.get(layer)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                    tracer.nested[(parent[0], layer)] += 1
                tracer.busy[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                tracer.spans += 1
            if counter is not None:
                counter(tracer.counts, result, args)
            return result

        return wrapper


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span around an empty call, in seconds."""

    def empty():
        return None

    probe = Tracer()
    wrapped = probe._wrap("probe", empty)
    probe.active = True
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        empty()
    plain = time.perf_counter() - start
    return max(traced - plain, 0.0) / samples
