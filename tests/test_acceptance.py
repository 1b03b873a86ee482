"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale study is property-based: headline equipment counts depend on
solver gap settings and data the source material does not pin down, so the
checks target orderings, physics and exactness rather than absolute counts.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from evplan import data_path
from evplan.bnb import SolverConfig, solve_bnb
from evplan.builder import build_plan_model
from evplan.demand import load_demand
from evplan.fleet import generate_commute_fleet
from evplan.instance import prepare_instance
from evplan.loadflow import solve_load_flow
from evplan.milp import SENSE_EQ, SENSE_GE, SENSE_LE
from evplan.mps_io import export_mps, import_solution, parse_mps, write_solution_file
from evplan.network import load_network
from evplan.oracle import brute_force_oracle
from evplan.sensitivity import compute_sensitivities
from evplan.solution import (
    assignment_to_columns,
    soc_series,
    solution_from_result,
    solve_plan,
)
from evplan.verify import linearization_error, verify_solution

from helpers import tiny_instance

EXACT = SolverConfig(gap=0.0, abs_gap=1e-9)
CONFIGS = [("spc", "A"), ("spc", "B"), ("mpc", "A"), ("mpc", "B")]
TINY_SEEDS = list(range(1000, 1050))  # 50 seeded instances per configuration
DESK_GAP = 0.10
# The node limit alone ends the 100-vehicle searches, so the plans that
# criterion 4 compares do not depend on the speed of the machine.
DESK_BUDGET = SolverConfig(gap=DESK_GAP, node_limit=6000)


def announce(criterion: int, label: str, ok: bool) -> bool:
    print(f"\nACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


@pytest.fixture(scope="module")
def tiny_battery():
    """Gap-0 solve + oracle for every seed and configuration."""
    started = time.monotonic()
    base = {seed: tiny_instance(seed=seed) for seed in TINY_SEEDS}
    out = {}
    for seed, inst0 in base.items():
        for chargers, scenario in CONFIGS:
            inst = replace(inst0, scenario=scenario, chargers=chargers)
            model = build_plan_model(inst)
            res = solution_from_result(inst, model, solve_bnb(model, EXACT))
            orc = brute_force_oracle(inst, max_free_binaries=40)
            out[(seed, chargers, scenario)] = (inst, model, res, orc)
    return out, time.monotonic() - started


@pytest.fixture(scope="module")
def desk_study():
    started = time.monotonic()
    net = load_network(data_path("cigre_mv_14bus.json"))
    dem = load_demand(data_path("demand_24h.csv"), net)
    sched, vehicles = generate_commute_fleet(
        net.cluster_nodes(1), net.cluster_nodes(2), 100, seed=42
    )
    cases = {}
    for chargers, scenario in CONFIGS:
        inst = prepare_instance(
            net, dem, sched, vehicles, scenario=scenario, chargers=chargers
        )
        cases[f"{chargers}-{scenario}"] = (inst, solve_plan(inst, DESK_BUDGET))
    return cases, time.monotonic() - started


def test_criterion_1_oracle_equivalence(tiny_battery):
    battery, elapsed = tiny_battery
    feasible = 0
    mismatches = []
    for (seed, chargers, scenario), (inst, model, res, orc) in battery.items():
        if orc.status == "infeasible":
            if res.status != "infeasible":
                mismatches.append((seed, chargers, scenario, "status"))
            continue
        feasible += 1
        if res.status != "optimal" or res.objective != orc.objective:
            mismatches.append(
                (seed, chargers, scenario, res.objective, orc.objective)
            )
    ok = not mismatches and feasible >= 100 and elapsed <= 300.0
    assert announce(
        1,
        f"oracle equivalence on {len(battery)} gap-0 runs "
        f"({feasible} feasible, {elapsed:.0f}s)",
        ok,
    ), mismatches[:5]


def test_criterion_2_mpc_never_beats_spc_backwards(tiny_battery):
    battery, _ = tiny_battery
    violations = []
    for seed in TINY_SEEDS:
        for scenario in ("A", "B"):
            spc = battery[(seed, "spc", scenario)][2]
            mpc = battery[(seed, "mpc", scenario)][2]
            if spc.status == "optimal" and mpc.status == "optimal":
                if mpc.objective > spc.objective + 1e-9:
                    violations.append((seed, scenario, mpc.objective, spc.objective))
            elif spc.status == "optimal" and mpc.status != "optimal":
                violations.append((seed, scenario, "mpc infeasible"))
    assert announce(
        2, f"cost(MPC) <= cost(SPC) on every gap-0 instance", not violations
    ), violations[:5]


def test_criterion_3_flexibility_never_hurts(tiny_battery):
    battery, _ = tiny_battery
    violations = []
    for seed in TINY_SEEDS:
        for chargers in ("spc", "mpc"):
            a = battery[(seed, chargers, "A")][2]
            b = battery[(seed, chargers, "B")][2]
            if a.status == "optimal":
                if b.status != "optimal" or b.objective > a.objective + 1e-9:
                    violations.append((seed, chargers))
    assert announce(
        3, "cost(Scenario B) <= cost(Scenario A) on every gap-0 instance",
        not violations,
    ), violations[:5]


def test_criterion_4_desk_scale_ordering(desk_study):
    cases, elapsed = desk_study
    costs = {}
    fast_total = 0
    feasible = True
    for label, (inst, sol) in cases.items():
        if not sol.feasible:
            feasible = False
            continue
        costs[label] = sol.objective
        fast_total += int(sol.counts["fast_chargers"].sum())
    order_ok = feasible and all(
        costs[big] >= costs[small] * (1.0 - DESK_GAP)
        for big, small in (
            ("spc-A", "spc-B"),
            ("spc-B", "mpc-A"),
            ("mpc-A", "mpc-B"),
            ("spc-A", "mpc-A"),
            ("spc-B", "mpc-B"),
        )
    )
    ok = order_ok and fast_total == 0 and elapsed <= 1800.0
    assert announce(
        4,
        f"desk-scale 100-EV study: costs={ {k: round(v) for k, v in costs.items()} }, "
        f"fast chargers={fast_total}, {elapsed:.0f}s",
        ok,
    )


def test_criterion_5_linearization_accuracy():
    net = load_network(data_path("cigre_mv_14bus.json"))
    dem = load_demand(data_path("demand_24h.csv"), net)
    worst = 0.0
    worst_zero = 0.0
    for t in range(dem.horizon):
        p, q = dem.demand_at(net, t)
        sens = compute_sensitivities(net, solve_load_flow(net, p, q))
        bp = sens.point.p_kw[net.node_bus]
        bq = sens.point.q_kvar[net.node_bus]
        checks = [
            linearization_error(net, sens, scale * bp, scale * bq) for scale in (0.0, 0.2, -0.2)
        ]
        assert all(exact is not None for exact, _ in checks)
        errors = [err["max_voltage_error_pu"] for _, err in checks]
        worst_zero = max(worst_zero, errors[0])
        worst = max(worst, errors[1], errors[2])
    ok = worst <= 5e-3 and worst_zero <= 1e-8
    assert announce(
        5,
        f"linear voltage error {worst:.2e} pu at +-20% demand "
        f"(zero-increment {worst_zero:.1e})",
        ok,
    )


def test_criterion_6_verifier_mutation_coverage(tiny_battery):
    battery, _ = tiny_battery
    mutations = 0
    missed = []
    families = ("fast_charge", "slow_charge", "fast_plug", "slow_plug")
    for (seed, chargers, scenario), (inst, model, res, orc) in sorted(
        battery.items(), key=lambda kv: kv[0]
    ):
        if orc.status != "optimal" or mutations >= 220:
            continue
        base = orc.assignment
        report = verify_solution(inst, base, spot_checks=0)
        if not report.ok:
            missed.append((seed, "baseline not clean"))
            continue
        for fam in families:
            for v in range(inst.n_vehicles):
                for t in range(inst.horizon):
                    if mutations >= 220:
                        break
                    import copy

                    mutant = copy.deepcopy(base)
                    arr = getattr(mutant, fam)
                    arr[v, t] = 1 - arr[v, t]
                    mutations += 1
                    x = assignment_to_columns(model, inst, mutant)
                    model_ok = model.check_point(x) == []
                    verify_ok = verify_solution(inst, mutant, spot_checks=0).ok
                    if model_ok != verify_ok:
                        missed.append((seed, fam, v, t, model_ok, verify_ok))
    ok = mutations >= 200 and not missed
    assert announce(
        6, f"verifier agrees with the model on {mutations} single-bit mutations",
        ok,
    ), missed[:5]


def test_criterion_7_soc_physics(tiny_battery, desk_study):
    battery, _ = tiny_battery
    cases, _ = desk_study
    checked = 0
    bad = []
    sols = [
        (inst, res) for (inst, model, res, orc) in battery.values() if res.feasible
    ] + [(inst, sol) for inst, sol in cases.values() if sol.feasible]
    for inst, sol in sols:
        soc = soc_series(inst, sol.assignment)
        for v, veh in enumerate(inst.vehicles):
            checked += 1
            if soc[v].min() < veh.soc_min - 1e-9 or soc[v].max() > veh.soc_max + 1e-9:
                bad.append(("bounds", v))
            if soc[v, -1] < soc[v, 0] - 1e-9:
                bad.append(("final", v))
    assert announce(
        7, f"SOC trajectories within bounds on {checked} vehicle days", not bad
    ), bad[:5]


def test_criterion_8_sweep_monotonicity():
    inst = tiny_instance(seed=1040, scenario="A", chargers="mpc")
    totals = []
    for mult in (1.0, 1.2, 1.4):
        scaled = replace(
            inst,
            schedule=replace(inst.schedule, discharge_kw=inst.schedule.discharge_kw * mult),
        )
        sol = solve_plan(scaled, EXACT)
        assert sol.status == "optimal", f"multiplier {mult} not solvable"
        totals.append(int(sol.counts["slow_chargers"].sum()))
    ok = totals[0] <= totals[1] <= totals[2]
    assert announce(8, f"MPC slow-charger totals across demand sweep: {totals}", ok)


def test_criterion_9_mps_bridge(tmp_path, tiny_battery):
    battery, _ = tiny_battery
    key = next(
        k for k, (inst, model, res, orc) in sorted(battery.items(), key=lambda kv: kv[0])
        if orc.status == "optimal"
    )
    inst, model, res, orc = battery[key]
    path = tmp_path / "model.mps"
    export_mps(model, path)
    doc = parse_mps(path)
    ok = len(doc["columns"]) == model.n_cols and len(doc["rows"]) == model.n_rows
    ok = ok and all(f"C{j + 1:07d}" in doc["columns"] for j in range(model.n_cols))
    sense_map = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}
    ok = ok and all(
        dict((n, t) for t, n in doc["rows"])[f"R{i + 1:07d}"] == sense_map[model.row_sense[i]]
        for i in range(model.n_rows)
    )
    # No external MPS solver in this environment: round-trip an internally
    # produced optimal point through the solution-file interface instead.
    x = assignment_to_columns(model, inst, orc.assignment)
    sol_file = tmp_path / "oracle.txt"
    write_solution_file(model, x, sol_file)
    x2 = import_solution(model, sol_file)
    ok = ok and np.allclose(x2, x, atol=1e-9)
    ok = ok and model.objective_value(x2) == pytest.approx(orc.objective, abs=1e-6)
    assert announce(
        9, "MPS export/re-parse bit-exact and solution import reproduces the "
        "oracle objective", ok,
    )
