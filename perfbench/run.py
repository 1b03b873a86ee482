"""Layered pipeline benchmark for evplan.

    python3 perfbench/run.py --workload desk-study --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

One run makes the workload's inputs from ``--seed``, runs one untimed
warm-up round checked against independent computations, then repeats
timed rounds of the same pipeline calls until their time reaches
``--seconds`` (at least two rounds), writes a record file to
``perfbench/out/`` and prints one JSON object as its last line. With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced wrappers. ``--workload all`` runs every
workload in its own process and prints each one's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("desk-study", "tiny-battery", "large-export", "fleet-screen")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "plan_cost": "currency",
    "proven_bound": "currency",
    "peak_rss_mb": "MB",
}
LAYER_COUNTS = (
    "loadflow.calls", "sensitivity.calls", "linear_grid.rows", "milp.rows",
    "milp.cols", "milp.nnz", "mps_io.bytes", "presolve.rows", "presolve.cols",
    "presolve.nnz", "simplex.calls", "bnb.nodes", "bnb.lp_iterations",
    "verify.exact_flows", "trace.spans",
)
LAYER_TIMES = (
    "loadflow.busy_s", "sensitivity.busy_s", "instance.busy_s", "linear_grid.busy_s",
    "builder.busy_s", "mps_io.busy_s", "presolve.busy_s", "simplex.busy_s",
    "bnb.busy_s", "solution.busy_s", "verify.busy_s", "analysis.busy_s",
    "oracle.busy_s", "trace.wall_s", "trace.overhead_s", "trace.unattributed_s",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def layer_stats(tracer, wall, span_cost):
    """Per-layer metrics of one traced round."""
    out = {name: 0.0 for name in LAYER_COUNTS + LAYER_TIMES}
    for layer, busy in tracer.busy.items():
        out[f"{layer}.busy_s"] = busy
    for layer in ("loadflow", "sensitivity", "simplex"):
        out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    out.update(tracer.counts)
    out["verify.exact_flows"] = tracer.nested.get(("verify", "loadflow"), 0)
    out["trace.spans"] = tracer.spans
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = tracer.spans * span_cost
    out["trace.unattributed_s"] = wall - sum(tracer.busy.values())
    return {k: v for k, v in out.items() if k in LAYER_COUNTS + LAYER_TIMES}


# What a user's process imports before the first pipeline call.
IMPORTS = "import evplan.analysis, evplan.builder, evplan.mps_io, evplan.verify"


def import_seconds() -> float:
    """Time to import the pipeline modules (numpy and scipy with them) in a
    fresh interpreter, as measured inside that interpreter."""
    code = (f"import time; t = time.perf_counter(); {IMPORTS}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return float(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import numpy
    import scipy

    import tracer as tracing
    from workloads import WORKLOADS, Clock

    workload = WORKLOADS[args.workload]
    # Set-up is repeated: each repetition imports in a fresh interpreter and
    # makes the workload's inputs; setup_s is the median.
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        data = workload.make_inputs(args.seed)
        setups.append(imports[-1] + time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    if args.trace:
        tracer = tracing.Tracer().install()
        span_cost = tracing.span_cost_s()
    else:
        # Only the presolve call is wrapped (once per solve): it gives the
        # model size after presolve for the record file.
        tracer = tracing.Tracer().install(
            [entry for entry in tracing.LAYERS if entry[0] == "presolve"])
        span_cost = 0.0

    # Warm-up: one untimed round, checked in full between its pipeline
    # calls. The timed rounds after it run no checks and must reproduce it.
    tracer.reset()
    started = time.perf_counter()
    checked = workload.run_round(data, Clock(tracer), tracer, check=True)
    warmup_s = time.perf_counter() - started
    oracle_s = tracer.busy.get("oracle", 0.0)
    problems = list(checked.problems)
    rounds, walls, layers = [], [], []
    # Whole rounds until the timed work reaches --seconds, and at least two.
    while len(walls) < MIN_ROUNDS or sum(walls) < args.seconds:
        tracer.reset()
        clock = Clock(tracer)
        outcome = workload.run_round(data, clock, tracer, check=False)
        if outcome.signature() != checked.signature():
            problems.append(f"timed round {len(rounds) + 1} differs from the checked round")
        rounds.append(outcome)
        walls.append(clock.elapsed)
        layers.append(layer_stats(tracer, clock.elapsed, span_cost))
    tracer.uninstall()

    if args.trace:
        metrics = {}
        for name in LAYER_COUNTS + LAYER_TIMES:
            values = [oracle_s] if name == "oracle.busy_s" else [s[name] for s in layers]
            unit = "count" if name in LAYER_COUNTS else "s"
            if name == "mps_io.bytes":
                unit = "bytes"
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "plan_cost": checked.plan_cost,
            "proven_bound": checked.proven_bound,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in [checked] + rounds),
        "failed": sum(r.failed for r in [checked] + rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "setup_runs_s": setups,
        "import_runs_s": imports,
        "warmup_s": warmup_s,
        "round_walls_s": walls,
        "round_layers": layers if args.trace else None,
        "absent_layers": tracer.absent,
        "problems": problems,
        "cases": checked.cases,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints its metrics as a table."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<22} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
