import numpy as np
import pytest

from evplan.bnb import SolverConfig
from evplan.builder import build_plan_model
from evplan.oracle import brute_force_oracle
from evplan.solution import (
    assignment_from_columns,
    assignment_to_columns,
    plan_objective,
    recompute_counts,
    soc_series,
    solve_plan,
)

from helpers import tiny_instance

EXACT = SolverConfig(gap=0.0, abs_gap=1e-9)


@pytest.fixture(scope="module")
def case():
    inst = tiny_instance(seed=203, scenario="A", chargers="mpc")
    model = build_plan_model(inst)
    sol = solve_plan(inst, EXACT, model=model)
    assert sol.status == "optimal"
    return inst, model, sol


def test_column_round_trip(case):
    inst, model, sol = case
    x = assignment_to_columns(model, inst, sol.assignment)
    again = assignment_from_columns(model, x)
    assert np.array_equal(again.slow_charge, sol.assignment.slow_charge)
    assert np.array_equal(again.fast_plug, sol.assignment.fast_plug)
    assert model.check_point(x) == []


def test_counts_equal_max_over_time(case):
    inst, _, sol = case
    counts = recompute_counts(inst, sol.assignment)
    # Recompute the per-interval sums by hand for one node.
    node = inst.node_ids[0]
    col = inst.node_ids.index(node)
    by_t = np.zeros(inst.horizon, dtype=int)
    for v in range(inst.n_vehicles):
        for t in range(inst.horizon):
            if inst.parked_col[v, t] == col:
                by_t[t] += sol.assignment.slow_plug[v, t]
    assert counts["slow_plugs"][col] == by_t.max()


def test_objective_is_integer_priced(case):
    inst, _, sol = case
    assert sol.objective == plan_objective(inst, sol.counts)
    cat = inst.catalog
    total = (
        sol.counts["fast_chargers"].sum() * cat.fast_charger_cost
        + sol.counts["slow_chargers"].sum() * cat.slow_charger_cost
        + sol.counts["fast_plugs"].sum() * cat.fast_plug_cost
        + sol.counts["slow_plugs"].sum() * cat.slow_plug_cost
    )
    assert sol.objective == pytest.approx(total)


def test_edges_derived_from_plug_states(case):
    _, _, sol = case
    conn, disc = sol.assignment.plug_edges("slow")
    plug = sol.assignment.slow_plug
    V, T = plug.shape
    for v in range(V):
        prev = 0
        for t in range(T):
            assert conn[v, t] == max(plug[v, t] - prev, 0)
            assert disc[v, t] == max(prev - plug[v, t], 0)
            prev = plug[v, t]


def test_soc_series_shape_and_bounds(case):
    inst, _, sol = case
    soc = soc_series(inst, sol.assignment)
    assert soc.shape == (inst.n_vehicles, inst.horizon + 1)
    for v, veh in enumerate(inst.vehicles):
        assert soc[v].min() >= veh.soc_min - 1e-9
        assert soc[v].max() <= veh.soc_max + 1e-9


def test_spc_counts_tie_plugs_to_chargers():
    inst = tiny_instance(seed=207, scenario="A", chargers="spc")
    sol = solve_plan(inst, EXACT)
    if sol.feasible:
        assert np.array_equal(sol.counts["slow_plugs"], sol.counts["slow_chargers"])
        assert np.array_equal(sol.counts["fast_plugs"], sol.counts["fast_chargers"])


def test_mpc_literal_counts_slow_by_plug():
    inst = tiny_instance(seed=207, scenario="A", chargers="mpc", mpc_slow_literal=True)
    sol = solve_plan(inst, EXACT)
    orc = brute_force_oracle(inst, max_free_binaries=40)
    if orc.status == "optimal":
        assert sol.objective == orc.objective


def test_spc_optimum_is_feasible_in_mpc_model():
    from dataclasses import replace

    for seed in (203, 205, 209):
        spc_inst = tiny_instance(seed=seed, scenario="A", chargers="spc")
        orc = brute_force_oracle(spc_inst, max_free_binaries=40)
        if orc.status != "optimal":
            continue
        mpc_inst = replace(spc_inst, chargers="mpc")
        mpc_model = build_plan_model(mpc_inst)
        x = assignment_to_columns(mpc_model, mpc_inst, orc.assignment)
        assert mpc_model.check_point(x) == []
        # and never costs more under the multi-port count rules
        mpc_counts = recompute_counts(mpc_inst, orc.assignment)
        assert plan_objective(mpc_inst, mpc_counts) <= orc.objective + 1e-9


def test_lp_relaxation_bounds_oracle():
    from evplan.simplex import solve_lp

    inst = tiny_instance(seed=203, scenario="A", chargers="mpc")
    model = build_plan_model(inst)
    lp = solve_lp(model)
    orc = brute_force_oracle(inst, max_free_binaries=40)
    assert lp.status == "optimal"
    assert orc.status == "optimal"
    assert lp.objective <= orc.objective + 1e-6


def test_count_columns_equal_recomputed_max_at_optimum():
    from evplan.bnb import solve_bnb

    inst = tiny_instance(seed=205, scenario="A", chargers="mpc")
    model = build_plan_model(inst)
    res = solve_bnb(model, EXACT)
    assert res.status == "optimal"
    counts = recompute_counts(inst, assignment_from_columns(model, res.x))
    for fam in counts:
        solver_vals = res.x[model.family(fam)]
        assert np.allclose(solver_vals, counts[fam], atol=1e-6)


def test_solver_incumbent_passes_independent_verifier():
    from evplan.verify import verify_solution

    inst = tiny_instance(seed=209, scenario="B", chargers="spc")
    sol = solve_plan(inst, EXACT)
    assert sol.feasible
    report = verify_solution(inst, sol.assignment, counts=sol.counts)
    assert report.ok, report.violations[:3]
