"""Command-line pipeline: generate, build, solve, report, sweep.

Exit codes: 0 success, 2 usage or input error, 3 infeasible instance,
4 solver stopped at a limit without meeting its gap.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data_path
from .analysis import StudyCase, build_report, demand_sweep, dumps_strict, write_csv
from .bnb import MilpSolveResult, SolverConfig
from .builder import build_plan_model
from .demand import load_demand
from .errors import EvPlanError, ParameterError, malformed_input
from .fleet import ChargerCatalog, generate_commute_fleet
from .fleet_io import dump_fleet, load_fleet
from .instance import prepare_instance
from .linear_grid import GridLimits
from .mps_io import export_mps, import_solution, write_solution_file
from .network import load_network
from .solution import (
    BINARY_FAMILIES,
    PlanAssignment,
    PlanSolution,
    assignment_to_columns,
    plan_solution,
    solution_from_result,
    solve_plan,
)
from .verify import verify_solution

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

# solve and sweep stop here unless --node-limit or the config sets a limit:
# without one, a gap the search cannot reach keeps it running for minutes
# even on a 5-vehicle fleet. SolverConfig itself stays unlimited.
DEFAULT_NODE_LIMIT = 2000
NODE_LIMIT_HELP = f"branch-and-bound nodes before stopping with exit code 4 (default {DEFAULT_NODE_LIMIT})"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, EvPlanError) as exc:  # OSError: a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="evplan",
        description="Cost-optimal siting and sizing of EV chargers in an MV grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fleet=True):
        p.add_argument("--config", type=Path, help="JSON config; flags override its keys")
        p.add_argument("--grid", type=Path, help="grid JSON (default: bundled 14-bus)")
        p.add_argument("--demand", type=Path, help="net demand CSV (default: bundled)")
        if fleet:
            p.add_argument("--fleet", type=Path, help="fleet.json from 'generate'")
        p.add_argument("--scenario", choices=["A", "B"])
        p.add_argument("--chargers", choices=["spc", "mpc"])
        p.add_argument("--mpc-slow-literal", action="store_true")
        p.add_argument("--v-min", type=float)
        p.add_argument("--v-max", type=float)
        p.add_argument("--out", type=Path)

    p = sub.add_parser("generate", help="synthesize a commuting fleet")
    p.add_argument("--config", type=Path)
    p.add_argument("--grid", type=Path)
    p.add_argument("--vehicles", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--daily-kwh", type=float)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="assemble the MILP and export MPS")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve internally or import a solution")
    common(p)
    p.add_argument("--gap", type=float)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--node-limit", type=int, help=NODE_LIMIT_HELP)
    p.add_argument("--import", dest="import_path", type=Path,
                   help="solution file (column value lines) instead of solving")
    p.add_argument("--verbose", action="store_true",
                   help="log search progress to stderr every 10 s")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("report", help="tables and profiles from solved cases")
    p.add_argument("--config", type=Path)
    p.add_argument("--grid", type=Path)
    p.add_argument("--demand", type=Path)
    p.add_argument("--fleet", type=Path)
    p.add_argument("--solutions", type=Path, nargs="+", required=True,
                   help="solution JSON files written by 'solve'")
    p.add_argument("--gap", type=float)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="re-solve under scaled driving demand")
    common(p)
    p.add_argument("--sweep", type=str,
                   help="comma-separated demand multipliers (default 1.1,1.2,1.3,1.4)")
    p.add_argument("--gap", type=float)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--node-limit", type=int, help=NODE_LIMIT_HELP)
    p.set_defaults(func=cmd_sweep)
    return parser


def _load_config(args):
    cfg = {}
    path = getattr(args, "config", None)
    if path:
        with malformed_input(path):
            cfg = json.loads(Path(path).read_text())
        if not isinstance(cfg, dict):
            raise ParameterError(f"{path}: expected a JSON object")
    return cfg


def _arg(args, cfg, key, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None and val is not False:
        return val
    return cfg.get(key, default)


def _number(args, cfg, key, kind, default=None):
    """``_arg`` for a numeric setting, as ``kind`` (int or float). A config
    value must be a JSON number, and a whole one for an int setting; any
    other value is a ParameterError that names the config file."""
    val = _arg(args, cfg, key, default)
    if val is None:
        return None
    with malformed_input(args.config):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise TypeError(f"{key} must be a number, not {val!r}")
        if kind is int and not float(val).is_integer():
            raise ValueError(f"{key} must be a whole number, not {val!r}")
        return kind(val)


def _solver_config(args, cfg) -> SolverConfig:
    return SolverConfig(
        gap=_number(args, cfg, "gap", float, 0.10),
        node_limit=_number(args, cfg, "node-limit", int, DEFAULT_NODE_LIMIT),
        time_limit_s=_number(args, cfg, "time-limit", float),
    )


def _resolve_inputs(args, cfg, need_fleet=True):
    grid = _arg(args, cfg, "grid") or data_path("cigre_mv_14bus.json")
    demand = _arg(args, cfg, "demand") or data_path("demand_24h.csv")
    network = load_network(grid)
    profile = load_demand(demand, network)
    if not need_fleet:
        return network, profile, None, None
    fleet = _arg(args, cfg, "fleet")
    if fleet is None:
        raise EvPlanError("--fleet is required (run 'evplan generate' first)")
    schedule, vehicles = load_fleet(fleet)
    return network, profile, schedule, vehicles


def _catalog_from(cfg) -> ChargerCatalog:
    kw = {k: cfg[k] for k in (
        "fast_kva", "slow_kva", "fast_pf", "slow_pf",
        "fast_charger_cost", "slow_charger_cost",
        "fast_plug_cost", "slow_plug_cost",
    ) if k in cfg}
    return ChargerCatalog(**kw)


def _instance_from(args, cfg):
    network, profile, schedule, vehicles = _resolve_inputs(args, cfg)
    with malformed_input(args.config):
        catalog = _catalog_from(cfg)
    return prepare_instance(
        network,
        profile,
        schedule,
        vehicles,
        catalog=catalog,
        scenario=_arg(args, cfg, "scenario", "A"),
        chargers=_arg(args, cfg, "chargers", "spc"),
        limits=GridLimits(
            v_min_pu=_number(args, cfg, "v-min", float, 0.97),
            v_max_pu=_number(args, cfg, "v-max", float, 1.03),
        ),
        mpc_slow_literal=bool(_arg(args, cfg, "mpc-slow-literal", False)),
    )


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    grid = _arg(args, cfg, "grid") or data_path("cigre_mv_14bus.json")
    network = load_network(grid)
    homes = network.cluster_nodes(1)
    work = network.cluster_nodes(2)
    if not homes or not work:
        print("error: grid defines no EV clusters", file=sys.stderr)
        return EXIT_USAGE
    schedule, vehicles = generate_commute_fleet(
        homes, work, _number(args, cfg, "vehicles", int, 1000),
        seed=_number(args, cfg, "seed", int, 42),
        daily_energy_kwh=_number(args, cfg, "daily-kwh", float, 4.8),
    )
    out = Path(_arg(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    dump_fleet(schedule, vehicles, out / "fleet.json")
    print(f"wrote {out / 'fleet.json'} and {out / 'schedule.csv'} "
          f"({len(vehicles)} vehicles)")
    return EXIT_OK


def cmd_build(args) -> int:
    cfg = _load_config(args)
    instance = _instance_from(args, cfg)
    model = build_plan_model(instance)
    out = Path(_arg(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    mps = out / "model.mps"
    sidecar = export_mps(model, mps)
    print(
        f"wrote {mps} ({model.n_rows} rows, {model.n_cols} columns, "
        f"{model.n_binary} binary) and {sidecar}"
    )
    return EXIT_OK


def _solution_payload(instance, solution: PlanSolution, label: str) -> dict:
    report = None
    if solution.feasible:
        report = verify_solution(
            instance, solution.assignment, counts=solution.counts
        ).as_dict()
    return {
        "label": label,
        "mpc_slow_literal": instance.mpc_slow_literal,
        "status": solution.status,
        "objective": solution.objective,
        "bound": solution.bound,
        "gap": solution.gap,
        "nodes": solution.nodes,
        "lp_iterations": solution.lp_iterations,
        "runtime_s": solution.runtime_s,
        "model_size": _size_dict(solution.size),
        "presolved_size": _size_dict(solution.presolved_size),
        "counts": {k: [int(x) for x in v] for k, v in (solution.counts or {}).items()},
        "node_ids": list(instance.node_ids),
        "soc_start": (
            [float(s) for s in solution.assignment.soc_start] if solution.feasible else None
        ),
        "columns": (
            {fam: getattr(solution.assignment, fam).tolist() for fam in BINARY_FAMILIES}
            if solution.feasible
            else None
        ),
        "verification": report,
    }


def _size_dict(size):
    if size is None:
        return None
    rows, cols, nnz = size
    return {"rows": rows, "columns": cols, "nonzeros": nnz}


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    instance = _instance_from(args, cfg)
    model = build_plan_model(instance)
    label = f"{instance.chargers}-{instance.scenario}"
    out = Path(_arg(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)

    if args.import_path:
        x = import_solution(model, args.import_path)
        imported = MilpSolveResult(
            status="imported", x=x, size=(model.n_rows, model.n_cols, model.A.nnz)
        )
        solution = solution_from_result(instance, model, imported)
    else:
        if args.verbose:
            logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
        solution = solve_plan(instance, _solver_config(args, cfg), model=model)
        x = (
            assignment_to_columns(model, instance, solution.assignment)
            if solution.feasible
            else None
        )

    payload = _solution_payload(instance, solution, label)
    sol_path = out / f"solution_{label}.json"
    sol_path.write_text(dumps_strict(payload))
    if solution.feasible:
        write_solution_file(model, x, out / f"solution_{label}.txt")
    print(
        f"{label}: status={solution.status} objective={solution.objective} "
        f"bound={solution.bound:.2f} gap={solution.gap} -> {sol_path}"
    )
    if solution.status == "infeasible":
        return EXIT_INFEASIBLE
    if solution.status == "limit":
        return EXIT_LIMIT
    return EXIT_OK


def _read_payload(path) -> dict:
    if not Path(path).exists():
        raise EvPlanError(f"missing solution file {path}")
    with malformed_input(path):
        doc = json.loads(Path(path).read_text())
        if doc["columns"] is None:
            # solve writes such a file when a limit stops it before any plan
            raise EvPlanError(f"{path}: no plan to report (status {doc['status']})")
    return doc


def _case_from_payload(doc: dict, base) -> StudyCase:
    """The file's plan on ``base`` (one linearization shared by every case),
    priced with the file's configuration and counting rule."""
    label = doc["label"]
    chargers, scenario = label.split("-")
    instance = replace(
        base,
        scenario=scenario,
        chargers=chargers,
        mpc_slow_literal=bool(doc.get("mpc_slow_literal", False)),
    )
    if list(doc["node_ids"]) != list(base.node_ids):
        raise ParameterError("the plan's node ids do not match the grid's")
    shape = (base.n_vehicles, base.horizon)
    columns = {fam: np.asarray(doc["columns"][fam], dtype=int) for fam in BINARY_FAMILIES}
    columns["soc_start"] = np.asarray(doc["soc_start"], dtype=float)
    for name, values in columns.items():
        want = shape[:1] if name == "soc_start" else shape
        if values.shape != want:
            raise ParameterError(f"{name} is shaped {values.shape}; the fleet needs {want}")
    assignment = PlanAssignment(**columns)
    bound = -np.inf if doc["bound"] is None else doc["bound"]
    figures = MilpSolveResult(status=doc["status"], bound=bound, gap=doc["gap"])
    return StudyCase(label, instance, plan_solution(instance, assignment, figures))


def cmd_report(args) -> int:
    cfg = _load_config(args)
    gap = SolverConfig(gap=_number(args, cfg, "gap", float, 0.10)).gap  # checked as a solve's
    docs = [_read_payload(path) for path in args.solutions]
    base = _instance_from(args, cfg)
    cases = []
    for path, doc in zip(args.solutions, docs):
        with malformed_input(path):
            case = _case_from_payload(doc, base)
        if any(c.label == case.label for c in cases):
            raise ParameterError(f"{path}: a second plan for {case.label}")
        cases.append(case)
    report = build_report(cases, gap=gap)
    out = Path(_arg(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "charger_table.csv", report.charger_rows)
    write_csv(out / "costs.csv", report.costs)
    write_csv(out / "injections.csv", report.injection_rows)
    report.write_json(out / "study_report.json")
    print(f"wrote charger_table.csv, costs.csv, injections.csv, study_report.json in {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        multipliers = [
            float(x)
            for x in str(_arg(args, cfg, "sweep", "1.1,1.2,1.3,1.4")).split(",")
            if x
        ]
    except ValueError:
        print("error: --sweep expects comma-separated numbers", file=sys.stderr)
        return EXIT_USAGE
    if not multipliers:
        print("error: empty sweep list", file=sys.stderr)
        return EXIT_USAGE
    instance = _instance_from(args, cfg)
    rows = demand_sweep(instance, multipliers, _solver_config(args, cfg))
    out = Path(_arg(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "sweep.csv", rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
