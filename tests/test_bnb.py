import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evplan import bnb
from evplan.bnb import SolverConfig, _Node, solve_bnb
from evplan.builder import build_plan_model
from evplan.errors import ParameterError
from evplan.fleet import generate_commute_fleet
from evplan.instance import prepare_instance
from evplan.milp import BINARY, CONTINUOUS, MilpModel
from evplan.oracle import brute_force_oracle
from evplan.presolve import presolve
from evplan.solution import solution_from_result

from helpers import parent_walk_bounds, tiny_instance

EXACT = SolverConfig(gap=0.0, abs_gap=1e-9)


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(gap=-0.1)
    with pytest.raises(ParameterError):
        SolverConfig(node_limit=0)
    for bad in ({"gap": np.nan}, {"abs_gap": np.inf}, {"time_limit_s": np.nan},
                {"time_limit_s": np.inf}):
        with pytest.raises(ParameterError):
            SolverConfig(**bad)


def _knapsack():
    m = MilpModel()
    vals = [6.0, 10.0, 12.0]
    wts = [1.0, 2.0, 3.0]
    cols = [m.add_column(f"x{j}", BINARY, 0, 1, obj=-vals[j]) for j in range(3)]
    m.add_row("cap", [(cols[j], wts[j]) for j in range(3)], "L", 5.0)
    return m.freeze()


def _infeasible():
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1)
    m.add_row("r1", [(a, 1.0)], "G", 0.5)
    m.add_row("r2", [(a, 1.0)], "L", 0.5)
    return m.freeze()


def test_pure_binary_knapsack():
    res = solve_bnb(_knapsack(), EXACT)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-22.0)  # items 2 and 3


def test_infeasible_milp():
    assert solve_bnb(_infeasible(), EXACT).status == "infeasible"


def test_unbounded_milp_has_no_point():
    # Presolve finds x in no row; then a row it keeps, and the root LP
    # finds the ray x = y + t.
    m = MilpModel()
    x = m.add_column("x", CONTINUOUS, 0, np.inf, obj=-1.0)
    b = m.add_column("b", BINARY, 0, 1, obj=1.0)
    m.add_row("r", [(x, 1.0), (b, -1.0)], "G", -5.0)
    by_presolve = solve_bnb(m.freeze(), EXACT)
    m = MilpModel()
    x = m.add_column("x", CONTINUOUS, 0, np.inf, obj=-1.0)
    y = m.add_column("y", CONTINUOUS, 0, np.inf, obj=-1.0)
    b = m.add_column("b", BINARY, 0, 1, obj=1.0)
    m.add_row("r", [(x, 1.0), (y, -1.0), (b, 0.5)], "L", 1.0)
    by_lp = solve_bnb(m.freeze(), EXACT)
    assert by_presolve.presolved_size is None and by_lp.presolved_size == (1, 3, 3)
    for res in (by_presolve, by_lp):
        assert res.status == "unbounded"
        assert res.x is None and res.objective is None and res.bound == -np.inf


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


def test_progress_is_logged_at_info(caplog, monkeypatch):
    monkeypatch.setattr(bnb, "LOG_INTERVAL_S", 0.0)
    with caplog.at_level(logging.INFO, logger="evplan.bnb"):
        model = build_plan_model(tiny_instance(seed=7, scenario="A", chargers="spc"))
        solve_bnb(model, SolverConfig(gap=0.0))
    progress = [r for r in caplog.records if r.name == "evplan.bnb"]
    assert progress and all(r.levelno == logging.INFO for r in progress)
    assert progress[0].getMessage().startswith("[bnb] ")
    assert " nodes=" in progress[0].getMessage() and " bound=" in progress[0].getMessage()


def _tiny_spc_a():
    return build_plan_model(tiny_instance(seed=7, scenario="A", chargers="spc"))


@pytest.mark.parametrize("make, config, stop", [
    (_tiny_spc_a, EXACT, "gap reached"),
    (_tiny_spc_a, SolverConfig(gap=0.0, node_limit=1), "node limit"),
    (_knapsack, EXACT, "tree exhausted"),
    (_infeasible, EXACT, "infeasible"),
])
def test_search_end_is_logged_with_its_stop_reason(caplog, make, config, stop):
    model = make()
    with caplog.at_level(logging.INFO, logger="evplan.bnb"):
        res = solve_bnb(model, config)
    (last,) = [r.getMessage() for r in caplog.records if r.name == "evplan.bnb"][-1:]
    assert last.startswith(f"[bnb] stop={stop} nodes={res.nodes} lp_iterations={res.lp_iterations} ")


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
        assert model.check_point(res.x) == []


# Search trajectory of the exact solver on acceptance instances 1000-1003:
# (seed, chargers, scenario, status, objective, bound, nodes, LP iterations,
# presolved rows, columns, nonzeros). Overhead work on the node loop must not
# move any of these; a changed pivot or node order shows in the counts. The
# objective, which an alternate optimal plan may sum in another order, is
# also held to the exhaustive oracle's.
PINNED_TRAJECTORIES = [
    (1000, "spc", "A", "optimal", 1840.0, 1840.0, 443, 699, 46, 30, 160),
    (1000, "spc", "B", "optimal", 1840.0, 1840.0, 443, 699, 46, 30, 160),
    (1000, "mpc", "A", "optimal", 1840.0, 1840.0, 894, 1423, 52, 34, 178),
    (1000, "mpc", "B", "optimal", 1840.0, 1840.0, 894, 1423, 52, 34, 178),
    (1001, "spc", "A", "optimal", 919.9999999999995, 919.9999999999995, 27, 108, 53, 32, 184),
    (1001, "spc", "B", "optimal", 919.9999999999995, 919.9999999999995, 27, 108, 53, 32, 184),
    (1001, "mpc", "A", "optimal", 920.0, 920.0, 35, 164, 61, 38, 204),
    (1001, "mpc", "B", "optimal", 920.0, 920.0, 35, 164, 61, 38, 204),
    (1002, "spc", "A", "optimal", 920.0, 920.0, 41, 76, 25, 17, 79),
    (1002, "spc", "B", "optimal", 920.0, 920.0, 41, 76, 25, 17, 79),
    (1002, "mpc", "A", "optimal", 920.0, 920.0, 68, 127, 31, 21, 91),
    (1002, "mpc", "B", "optimal", 920.0, 920.0, 68, 127, 31, 21, 91),
    (1003, "spc", "A", "optimal", 1840.0, 1840.0, 86, 288, 46, 30, 160),
    (1003, "spc", "B", "optimal", 1840.0, 1840.0, 86, 288, 46, 30, 160),
    (1003, "mpc", "A", "optimal", 1840.0, 1840.0, 461, 802, 52, 34, 178),
    (1003, "mpc", "B", "optimal", 1840.0, 1840.0, 461, 802, 52, 34, 178),
]


@pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
def test_search_trajectory_is_pinned(seed):
    for pin in (p for p in PINNED_TRAJECTORIES if p[0] == seed):
        _, chargers, scenario = pin[:3]
        model = build_plan_model(tiny_instance(seed=seed, scenario=scenario, chargers=chargers))
        red = presolve(model).reduced
        res = solve_bnb(model, EXACT)
        got = (seed, chargers, scenario, res.status, res.objective, res.bound,
               res.nodes, res.lp_iterations, red.n_rows, red.n_cols, red.A.nnz)
        assert got == pin
        orc = brute_force_oracle(tiny_instance(seed=seed, scenario=scenario, chargers=chargers),
                                 max_free_binaries=40)
        assert abs(res.objective - orc.objective) <= 1e-9


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_node_bounds_match_parent_walk(data):
    """Random trees of two-way branches and dive steps with flip siblings,
    built the way the search builds them (each column fixed at most once on
    a path): every node's bounds equal a walk up the equivalent chain of
    single-column branches, down to signed zeros. A branch child's chain
    link is the range it stood for before the store held fixes only: down
    ``(lb0, 0)``, up ``(1, ub0)``."""
    n = data.draw(st.integers(1, 6), label="columns")
    value = st.sampled_from([0.0, -0.0, 1.0])
    lb0 = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n),
                             label="lb"))
    ub0 = np.ones(n)
    root = _Node(0, 0.0, np.empty(0, dtype=np.intp), np.empty(0))
    nodes = [(root, None, frozenset())]  # (node, reference chain, fixed columns)
    next_id = 1
    for _ in range(data.draw(st.integers(0, 12), label="steps")):
        parent, ref, fixed = data.draw(st.sampled_from(nodes))
        free = [c for c in range(n) if c not in fixed]
        if not free:
            continue
        cols, vals = parent.path()
        if data.draw(st.booleans(), label="dive"):
            fix = data.draw(st.lists(st.sampled_from(free), min_size=1, unique=True))
            fix_vals = data.draw(st.lists(value, min_size=len(fix), max_size=len(fix)))
            m = cols.size
            cols, vals = np.concatenate((cols, fix)), np.concatenate((vals, fix_vals))
            link = ref
            for k, (col, val) in enumerate(zip(fix, fix_vals)):
                sib = _Node(next_id + k, 0.0, cols[: m + k], vals[: m + k], col, 1.0 - val)
                nodes.append((sib, (link, col, 1.0 - val, 1.0 - val), fixed | set(fix[:k + 1])))
                link = (link, col, val, val)
            next_id += len(fix)
            nodes.append((_Node(next_id, 0.0, cols, vals), link, fixed | set(fix)))
            next_id += 1
        else:
            col = data.draw(st.sampled_from(free))
            for val, lo, hi in ((0.0, lb0[col], 0.0), (1.0, 1.0, ub0[col])):
                child = _Node(next_id, 0.0, cols, vals, col, val)
                nodes.append((child, (ref, col, lo, hi), fixed | {col}))
                next_id += 1
    for node, ref, _ in nodes:
        lb, ub = node.bounds(lb0, ub0)
        ref_lb, ref_ub = parent_walk_bounds(ref, lb0, ub0)
        assert _same_bits(lb, ref_lb) and _same_bits(ub, ref_ub)


# Search of the desk study (bundled grid, 17 commuting vehicles, seed 42, gap
# 0.10, 200 nodes), per configuration: (status, objective, bound, nodes, LP
# iterations). A change to how nodes are stored or expanded must not move it.
DESK_SEARCH = {
    ("spc", "A"): ("limit", 9200.0, 3341.2260167815725, 200, 1323),
    ("spc", "B"): ("limit", 8280.0, 2992.629504874929, 200, 1621),
    ("mpc", "A"): ("limit", 6120.0, 3107.589787282068, 200, 852),
    ("mpc", "B"): ("limit", 6920.0, 2956.5437479642824, 200, 912),
}


def test_desk_search_is_pinned(cigre_network, cigre_demand):
    sched, vehicles = generate_commute_fleet(
        cigre_network.cluster_nodes(1), cigre_network.cluster_nodes(2), 17, seed=42
    )
    got = {}
    for chargers, scenario in DESK_SEARCH:
        inst = prepare_instance(cigre_network, cigre_demand, sched, vehicles,
                                scenario=scenario, chargers=chargers)
        res = solve_bnb(build_plan_model(inst), SolverConfig(gap=0.10, node_limit=200))
        got[(chargers, scenario)] = (res.status, res.objective, res.bound, res.nodes,
                                     res.lp_iterations)
    assert got == DESK_SEARCH
