import pytest

from evplan.analysis import (
    StudyCase,
    build_report,
    charger_table,
    cost_comparison,
    demand_sweep,
    injection_profiles,
    write_csv,
)
from evplan.bnb import SolverConfig
from evplan.solution import PlanSolution, solve_plan

from helpers import tiny_instance

EXACT = SolverConfig(gap=0.0, abs_gap=1e-9)


@pytest.fixture(scope="module")
def four_cases():
    cases = []
    for chargers in ("spc", "mpc"):
        for scen in ("A", "B"):
            inst = tiny_instance(seed=202, scenario=scen, chargers=chargers)
            sol = solve_plan(inst, EXACT)
            assert sol.status == "optimal"
            cases.append(StudyCase(f"{chargers}-{scen}", inst, sol))
    return cases


def test_empty_solution_set_gives_empty_table():
    assert charger_table([]) == []


def test_totals_row_equals_column_sums(four_cases):
    rows = charger_table(four_cases)
    for case in four_cases:
        node_rows = [
            r for r in rows
            if r["case"] == case.label and isinstance(r["node"], int)
        ]
        total = next(
            r for r in rows if r["case"] == case.label and r["node"] == "total"
        )
        assert total["chargers"] == sum(r["chargers"] for r in node_rows)
        assert total["plugs"] == sum(r["plugs"] for r in node_rows)
        cluster_rows = [
            r for r in rows
            if r["case"] == case.label and str(r["node"]).startswith("cluster")
        ]
        assert sum(r["chargers"] for r in cluster_rows) == total["chargers"]


def test_each_case_is_summed_from_its_own_rows(four_cases):
    one = charger_table(four_cases[:1])
    assert charger_table([four_cases[0], four_cases[0]]) == one + one


def test_cost_orderings_hold_at_gap_zero(four_cases):
    costs, savings, ordering = cost_comparison(four_cases, gap=0.0)
    by = {c["case"]: c["cost"] for c in costs}
    assert by["mpc-A"] <= by["spc-A"] + 1e-9
    assert by["mpc-B"] <= by["spc-B"] + 1e-9
    assert by["spc-B"] <= by["spc-A"] + 1e-9
    assert by["mpc-B"] <= by["mpc-A"] + 1e-9
    assert all(entry["holds_with_gap"] for entry in ordering)


def test_case_without_plan_leaves_its_orderings_undecided(four_cases):
    unsolved = PlanSolution(
        status="limit", objective=None, bound=0.0, gap=None, assignment=None, counts=None,
    )
    cases = [
        StudyCase(c.label, c.instance, unsolved) if c.label == "spc-B" else c
        for c in four_cases
    ]
    report = build_report(cases, gap=0.0)
    verdicts = {e["expected"]: e["holds_with_gap"] for e in report.ordering}
    assert verdicts == {
        "spc-A >= mpc-A": True,
        "spc-B >= mpc-B": None,
        "spc-A >= spc-B": None,
        "mpc-A >= mpc-B": True,
    }
    assert all("spc-B" not in (s["from"], s["to"]) for s in report.savings)


def test_identical_solutions_zero_savings(four_cases):
    case = four_cases[0]
    twin = StudyCase("spc-A2", case.instance, case.solution)
    costs, savings, _ = cost_comparison([case, twin], gap=0.0)
    pair = next(s for s in savings if {s["from"], s["to"]} == {"spc-A", "spc-A2"})
    assert pair["saving_pct"] == pytest.approx(0.0)


def test_injection_profiles_respect_box(four_cases):
    for case in four_cases:
        rows, bands = injection_profiles(case)
        assert all(r["value"] <= 1.0 + 1e-6 for r in rows)
        assert len(bands) == case.instance.horizon
        for band in bands:
            assert band["q0.00"] <= band["q0.50"] <= band["q1.00"]


def test_no_ev_baseline_equals_normalized_demand(four_cases):
    case = four_cases[0]
    inst = case.instance
    import copy

    idle = copy.deepcopy(case.solution)
    idle.assignment.fast_charge[:] = 0
    idle.assignment.slow_charge[:] = 0
    rows, _ = injection_profiles(StudyCase("idle", inst, idle))
    for r in rows:
        bus = inst.network.buses[inst.network.bus_index(r["node"])]
        base = inst.demand.p_kw[inst.demand.row(r["node"]), r["t"]]
        assert r["value"] == pytest.approx(base / (bus.rating_kva * bus.power_factor))


def test_sweep_base_multiplier_reproduces_instance(four_cases):
    case = next(c for c in four_cases if c.label == "mpc-A")
    rows = demand_sweep(case.instance, [1.0], EXACT)
    assert rows[0]["multiplier"] == 1.0
    assert rows[0]["slow_chargers"] == int(case.solution.counts["slow_chargers"].sum())
    assert not rows[0]["non_monotone"]


def test_report_writes_csv(tmp_path, four_cases):
    report = build_report(four_cases, gap=0.0)
    write_csv(tmp_path / "costs.csv", report.costs)
    write_csv(tmp_path / "charger_table.csv", report.charger_rows)
    report.write_json(tmp_path / "report.json")
    text = (tmp_path / "costs.csv").read_text().splitlines()
    assert text[0].startswith("case,cost")
    assert len(text) == 5
