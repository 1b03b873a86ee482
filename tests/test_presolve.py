import numpy as np
import pytest
from scipy.optimize import LinearConstraint, milp

from evplan.builder import build_plan_model
from evplan.fleet import generate_commute_fleet
from evplan.instance import prepare_instance
from evplan.milp import BINARY, CONTINUOUS, MilpModel
from evplan.presolve import presolve
from evplan.simplex import solve_lp


def test_forcing_row_fixes_binaries():
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1, obj=1.0)
    b = m.add_column("b", BINARY, 0, 1, obj=1.0)
    m.add_row("force", [(a, 1.0), (b, 1.0)], "L", 0.0)
    m.freeze()
    pre = presolve(m)
    assert pre.status == "reduced"
    assert pre.reduced.n_cols == 0
    x = pre.postsolve(np.zeros(0))
    assert np.array_equal(x, [0.0, 0.0])


def test_bound_tightening_kills_oversized_step():
    # One unit of "a" overshoots the row cap on its own.
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1)
    b = m.add_column("b", CONTINUOUS, 0.0, 0.5, obj=1.0)
    m.add_row("cap", [(a, 2.5), (b, 1.0)], "L", 1.0)
    m.freeze()
    pre = presolve(m)
    x = pre.postsolve(np.zeros(pre.reduced.n_cols))
    assert x[0] == 0.0


def test_equality_doubleton_merges_columns():
    m = MilpModel()
    a = m.add_column("a", CONTINUOUS, 0, 5, obj=2.0)
    b = m.add_column("b", CONTINUOUS, 0, 5, obj=3.0)
    c = m.add_column("c", CONTINUOUS, 0, 5, obj=0.0)
    m.add_row("tie", [(a, 1.0), (b, -1.0)], "E", 0.0)
    m.add_row("need", [(a, 1.0), (c, 1.0)], "G", 2.0)
    m.freeze()
    pre = presolve(m)
    red = pre.reduced
    lp = solve_lp_reduced(red)
    x = pre.postsolve(lp)
    assert x[a] == pytest.approx(x[b])


def solve_lp_reduced(red):
    from evplan.simplex import BoundedSimplex

    eng = BoundedSimplex(red.A, red.rhs, red.senses, red.obj)
    res = eng.solve(red.lb, red.ub)
    assert res.status == "optimal"
    return res.x


def test_opposed_implications_merge():
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1)
    b = m.add_column("b", BINARY, 0, 1)
    m.add_row("ge", [(a, 1.0), (b, -1.0)], "G", 0.0)  # a >= b
    m.add_row("le", [(a, 1.0), (b, -1.0)], "L", 0.0)  # a <= b
    m.add_row("pick", [(a, 1.0)], "G", 1.0)
    m.freeze()
    pre = presolve(m)
    x = pre.postsolve(np.ones(pre.reduced.n_cols) if pre.reduced.n_cols else np.zeros(0))
    assert x[a] == x[b] == 1.0


def test_inert_singleton_round_trip():
    # c appears only in one row it can always absorb; postsolve must pick a
    # value satisfying the original row.
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1, obj=1.0)
    c = m.add_column("c", BINARY, 0, 1, obj=0.0)
    m.add_row("edge", [(c, 1.0), (a, -1.0)], "G", 0.0)  # c >= a
    m.add_row("want", [(a, 1.0)], "G", 1.0)
    m.freeze()
    pre = presolve(m)
    x = pre.postsolve(np.zeros(pre.reduced.n_cols))
    assert x[a] == 1.0
    assert x[c] >= x[a]


def test_inert_singleton_keeps_its_merged_columns_equal():
    # a and b merge; the merged column then sits alone in "cover" at zero
    # cost and is dropped. Postsolve must set both members.
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1)
    b = m.add_column("b", BINARY, 0, 1)
    d = m.add_column("d", BINARY, 0, 1, obj=1.0)
    m.add_row("tie", [(a, 1.0), (b, -1.0)], "E", 0.0)
    m.add_row("cover", [(a, 1.0), (d, 1.0)], "G", 1.0)
    m.freeze()
    from evplan.bnb import SolverConfig, solve_bnb

    res = solve_bnb(m, SolverConfig(gap=0.0))
    assert res.status == "optimal" and res.objective == 0.0
    assert m.check_point(res.x) == []
    assert res.x[a] == res.x[b] == 1.0


def test_infeasible_detected():
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1)
    m.add_row("lo", [(a, 1.0)], "G", 2.0)
    m.freeze()
    assert presolve(m).status == "infeasible"


@pytest.mark.parametrize("trial", range(40))
def test_random_milp_presolve_preserves_optimum(trial):
    rng = np.random.default_rng(4000 + trial)
    nn = int(rng.integers(4, 10))
    mm = int(rng.integers(3, 8))
    A = np.where(rng.random((mm, nn)) < 0.6, rng.integers(-2, 3, size=(mm, nn)), 0).astype(float)
    x0 = rng.integers(0, 2, size=nn).astype(float)
    senses = rng.choice(["L", "G", "E"], size=mm)
    slack = rng.integers(0, 3, mm)
    b = A @ x0 + np.select([senses == "L", senses == "G"], [slack, -slack], 0)
    # Some rows tie two columns, a x - a y (=|<=|>=) 0, in a sense x0 meets:
    # the shape that presolve merges, turns into implications or drops.
    # Pairs come from the first three columns, so that they repeat.
    for i in np.flatnonzero(rng.random(mm) < 0.5):
        p, q = rng.choice(3, size=2, replace=False)
        A[i] = 0.0
        A[i, p] = rng.integers(1, 3)
        A[i, q] = -A[i, p]
        met = ["E", "L", "G"] if x0[p] == x0[q] else ["G" if x0[p] > x0[q] else "L"]
        senses[i], b[i] = rng.choice(met), 0.0
    # A third of the columns cost nothing: candidates for removal.
    c = np.where(rng.random(nn) < 1 / 3, 0, rng.integers(-5, 6, size=nn)).astype(float)
    m = MilpModel()
    for j in range(nn):
        m.add_column(f"x{j}", BINARY, 0, 1, obj=c[j])
    for i in range(mm):
        m.add_row(f"r{i}", [(j, A[i, j]) for j in range(nn) if A[i, j]], senses[i], b[i])
    m.freeze()

    # Reference optimum over the raw model.
    constraints = []
    lb = np.where(senses == "L", -np.inf, b)
    ub = np.where(senses == "G", np.inf, b)
    constraints.append(LinearConstraint(A, lb, ub))
    ref = milp(c, constraints=constraints, integrality=np.ones(nn), bounds=(0, 1))

    from evplan.bnb import SolverConfig, solve_bnb

    mine = solve_bnb(m, SolverConfig(gap=0.0, abs_gap=1e-9))
    if ref.status == 2:  # infeasible
        assert mine.status == "infeasible"
    else:
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
        assert not m.check_point(mine.x, tol=1e-6)


# Presolved (rows, columns, nonzeros) of the desk model: bundled grid,
# 17 commuting vehicles, seed 42.
DESK_PRESOLVED = {
    ("spc", "A"): (1484, 427, 9979),
    ("spc", "B"): (2034, 1155, 11435),
    ("mpc", "A"): (1571, 435, 10358),
    ("mpc", "B"): (2121, 1163, 11814),
}


def test_desk_model_presolved_size_is_pinned(cigre_network, cigre_demand):
    sched, vehicles = generate_commute_fleet(
        cigre_network.cluster_nodes(1), cigre_network.cluster_nodes(2), 17, seed=42
    )
    got = {}
    for chargers, scenario in DESK_PRESOLVED:
        inst = prepare_instance(cigre_network, cigre_demand, sched, vehicles,
                                scenario=scenario, chargers=chargers)
        red = presolve(build_plan_model(inst)).reduced
        got[(chargers, scenario)] = (red.n_rows, red.n_cols, red.A.nnz)
    assert got == DESK_PRESOLVED
