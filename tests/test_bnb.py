import logging

import numpy as np
import pytest

from evplan.bnb import SolverConfig, solve_bnb
from evplan.builder import build_plan_model
from evplan.errors import ParameterError
from evplan.milp import BINARY, MilpModel
from evplan.oracle import brute_force_oracle
from evplan.solution import solution_from_result

from helpers import tiny_instance

EXACT = SolverConfig(gap=0.0, abs_gap=1e-9)


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(gap=-0.1)
    with pytest.raises(ParameterError):
        SolverConfig(node_limit=0)


def test_pure_binary_knapsack():
    m = MilpModel()
    vals = [6.0, 10.0, 12.0]
    wts = [1.0, 2.0, 3.0]
    cols = [m.add_column(f"x{j}", BINARY, 0, 1, obj=-vals[j]) for j in range(3)]
    m.add_row("cap", [(cols[j], wts[j]) for j in range(3)], "L", 5.0)
    m.freeze()
    res = solve_bnb(m, EXACT)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-22.0)  # items 2 and 3


def test_infeasible_milp():
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1)
    m.add_row("r1", [(a, 1.0)], "G", 0.5)
    m.add_row("r2", [(a, 1.0)], "L", 0.5)
    m.freeze()
    assert solve_bnb(m, EXACT).status == "infeasible"


def test_node_limit_reports_limit():
    rng = np.random.default_rng(9)
    m = MilpModel()
    n = 30
    cols = [m.add_column(f"x{j}", BINARY, 0, 1, obj=float(rng.integers(1, 9))) for j in range(n)]
    for i in range(12):
        picks = rng.choice(n, size=6, replace=False)
        m.add_row(f"c{i}", [(cols[int(j)], 1.0) for j in picks], "G", 2.0)
    m.freeze()
    res = solve_bnb(m, SolverConfig(gap=0.0, node_limit=2))
    assert res.status in ("limit", "optimal")
    if res.status == "limit":
        assert res.bound > -np.inf


def test_progress_is_logged_at_info(caplog):
    with caplog.at_level(logging.INFO, logger="evplan.bnb"):
        model = build_plan_model(tiny_instance(seed=7, scenario="A", chargers="spc"))
        solve_bnb(model, SolverConfig(gap=0.0, log_interval_s=0.0))
    progress = [r for r in caplog.records if r.name == "evplan.bnb"]
    assert progress and all(r.levelno == logging.INFO for r in progress)
    assert progress[0].getMessage().startswith("[bnb] ")
    assert " nodes=" in progress[0].getMessage() and " bound=" in progress[0].getMessage()


def test_bound_never_exceeds_objective():
    inst = tiny_instance(seed=31, scenario="A", chargers="mpc")
    model = build_plan_model(inst)
    res = solve_bnb(model, EXACT)
    if res.status == "optimal":
        assert res.bound <= res.objective + 1e-6


def test_determinism_identical_runs():
    inst = tiny_instance(seed=17, scenario="B", chargers="spc")
    model = build_plan_model(inst)
    r1 = solve_bnb(model, EXACT)
    r2 = solve_bnb(model, EXACT)
    assert r1.status == r2.status
    assert r1.nodes == r2.nodes
    assert r1.lp_iterations == r2.lp_iterations
    if r1.x is not None:
        assert np.array_equal(r1.x, r2.x)


@pytest.mark.parametrize("chargers", ["spc", "mpc"])
@pytest.mark.parametrize("scenario", ["A", "B"])
def test_matches_oracle_on_seeded_instances(chargers, scenario):
    hits = 0
    for seed in range(200, 212):
        inst = tiny_instance(seed=seed, scenario=scenario, chargers=chargers)
        model = build_plan_model(inst)
        res = solve_bnb(model, EXACT)
        orc = brute_force_oracle(inst, max_free_binaries=40)
        if orc.status == "infeasible":
            assert res.status == "infeasible"
            continue
        sol = solution_from_result(inst, model, res)
        assert sol.status == "optimal"
        assert sol.objective == orc.objective
        hits += 1
    assert hits >= 6  # most seeds must be feasible


def test_gap_stopping_rule():
    inst = tiny_instance(seed=202, scenario="A", chargers="spc")
    model = build_plan_model(inst)
    res = solve_bnb(model, SolverConfig(gap=0.5))
    assert res.status in ("optimal", "gap-optimal")
    if res.status == "gap-optimal":
        assert (res.objective - res.bound) / max(1, abs(res.objective)) <= 0.5 + 1e-9


def test_incumbent_satisfies_model():
    inst = tiny_instance(seed=207, scenario="B", chargers="mpc")
    model = build_plan_model(inst)
    res = solve_bnb(model, EXACT)
    if res.x is not None:
        assert model.check_point(res.x, tol=1e-5) == []
