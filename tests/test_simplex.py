import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from evplan import simplex
from evplan.builder import build_plan_model
from evplan.fleet import generate_commute_fleet
from evplan.instance import prepare_instance
from evplan.milp import CONTINUOUS, MilpModel
from evplan.oracle import brute_force_oracle
from evplan.simplex import AT_FREE, AT_LOWER, AT_UPPER, BASIC, BoundedSimplex, solve_lp

from helpers import tiny_instance


def _model(c, A, senses, b, lb, ub):
    m = MilpModel()
    for j, cj in enumerate(c):
        m.add_column(f"x{j}", CONTINUOUS, lb[j], ub[j], obj=cj)
    for i, row in enumerate(A):
        m.add_row(f"r{i}", [(j, a) for j, a in enumerate(row) if a != 0.0], senses[i], b[i])
    return m.freeze()


def _reference(c, A, senses, b, bounds):
    """Cold HiGHS solve of the same LP."""
    Aub, bub, Aeq, beq = [], [], [], []
    for i, row in enumerate(A):
        if senses[i] == "L":
            Aub.append(row); bub.append(b[i])
        elif senses[i] == "G":
            Aub.append(-row); bub.append(-b[i])
        else:
            Aeq.append(row); beq.append(b[i])
    return linprog(
        c,
        A_ub=np.array(Aub) if Aub else None,
        b_ub=np.array(bub) if bub else None,
        A_eq=np.array(Aeq) if Aeq else None,
        b_eq=np.array(beq) if beq else None,
        bounds=bounds,
        method="highs",
    )


LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

# DENSE_MAX_ROWS values that give every engine built under them one basis
# representation: a sparse LU with etas, or a dense tableau.
REPRESENTATIONS = {"sparse": -1, "dense": 10**9}


def _assert_dual_feasible(engine):
    """No movable nonbasic column of the engine's basis has a reduced cost of
    the wrong sign for the bound it sits at. The reduced costs are computed
    afresh with a dense solve, apart from the engine's own inverse."""
    A = engine.Aaug_csc.toarray()
    y = np.linalg.solve(A[:, engine.basic].T, engine.c[engine.basic])
    d = engine.c - A.T @ y
    tol = 1e-7 * (1.0 + np.abs(engine.c).max())
    stat, movable = engine.status, engine.movable
    assert np.all(stat[engine.basic] == BASIC)
    assert not np.any(movable & (stat == AT_LOWER) & (d < -tol))
    assert not np.any(movable & (stat == AT_UPPER) & (d > tol))
    assert not np.any((stat == AT_FREE) & (np.abs(d) > tol))


SLACK_BOUNDS = {"L": (0.0, np.inf), "G": (-np.inf, 0.0), "E": (0.0, 0.0)}


def _assert_bookkeeping(engine, lb, ub, senses):
    """The engine's kept state equals a fresh recomputation from the bounds,
    the status and the basis: its bounds of every column, the direction in
    which each column can leave its bound (+1 at lower, -1 at upper, 0 when
    basic, fixed or free) and the bounds of the basic columns in basis
    order."""
    slack_lb, slack_ub = zip(*(SLACK_BOUNDS[s] for s in senses))
    lb, ub = np.concatenate([lb, slack_lb]), np.concatenate([ub, slack_ub])
    assert np.array_equal(engine.lb, lb) and np.array_equal(engine.ub, ub)
    movable, stat = lb != ub, engine.status
    direction = np.where(movable & (stat == AT_LOWER), 1.0,
                         np.where(movable & (stat == AT_UPPER), -1.0, 0.0))
    assert np.array_equal(engine.dir, direction)
    assert np.array_equal(engine.lb_b, lb[engine.basic])
    assert np.array_equal(engine.ub_b, ub[engine.basic])


def test_min_x_subject_to_x_ge_3():
    m = _model([1.0], [[1.0]], ["G"], [3.0], [0.0], [np.inf])
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)


def test_contradictory_rows_infeasible():
    m = _model([0.0], [[1.0], [1.0]], ["L", "G"], [0.0, 1.0], [-np.inf], [np.inf])
    assert solve_lp(m).status == "infeasible"


def test_unbounded():
    m = _model([-1.0], [[1.0]], ["G"], [0.0], [0.0], [np.inf])
    assert solve_lp(m).status == "unbounded"


def test_bound_flip_path():
    # Optimum sits at the upper bounds without any pivot.
    m = _model([-1.0, -1.0], [[1.0, 1.0]], ["L"], [5.0], [0.0, 0.0], [1.0, 1.0])
    res = solve_lp(m)
    assert res.objective == pytest.approx(-2.0)


def test_equality_handling():
    m = _model([1.0, 1.0], [[1.0, 2.0]], ["E"], [4.0], [0.0, 0.0], [3.0, 3.0])
    res = solve_lp(m)
    assert res.objective == pytest.approx(2.0)
    assert res.x[1] == pytest.approx(2.0)


def test_deterministic_repetition():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(12, 18)) * (rng.random((12, 18)) < 0.4)
    b = A @ rng.random(18) + rng.random(12)
    c = rng.normal(size=18)
    m = _model(c, A, ["L"] * 12, b, [0.0] * 18, [1.0] * 18)
    r1 = solve_lp(m)
    r2 = solve_lp(m)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.x, r2.x)


@pytest.mark.parametrize("trial", range(30))
def test_random_cross_check_against_linprog(trial, monkeypatch):
    rng = np.random.default_rng(1000 + trial)
    mm, nn = int(rng.integers(4, 30)), int(rng.integers(4, 30))
    A = rng.normal(size=(mm, nn)) * (rng.random((mm, nn)) < 0.45)
    x0 = rng.random(nn)
    senses = rng.choice(["L", "G", "E"], size=mm, p=[0.5, 0.35, 0.15])
    b = A @ x0
    b += np.where(senses == "L", rng.random(mm), np.where(senses == "G", -rng.random(mm), 0.0))
    c = rng.normal(size=nn)
    m = _model(c, A, senses, b, [0.0] * nn, [1.0] * nn)
    ref = _reference(c, A, senses, b, [(0, 1)] * nn)
    assert ref.status == 0
    for kind, limit in REPRESENTATIONS.items():
        monkeypatch.setattr(simplex, "DENSE_MAX_ROWS", limit)
        engine = BoundedSimplex(m.A, m.rhs, list(m.row_sense), m.obj)
        assert engine.dense == (kind == "dense")
        mine = engine.solve(m.lb, m.ub)
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6 * max(1, abs(ref.fun)))
        _assert_dual_feasible(engine)


def test_warm_start_matches_cold():
    rng = np.random.default_rng(77)
    nn, mm = 25, 18
    A = rng.normal(size=(mm, nn)) * (rng.random((mm, nn)) < 0.5)
    b = A @ rng.random(nn) + rng.random(mm)
    c = rng.normal(size=nn)
    m = _model(c, A, ["L"] * mm, b, [0.0] * nn, [1.0] * nn)
    engine = BoundedSimplex(m.A, m.rhs, list(m.row_sense), m.obj)
    assert engine.solve(m.lb, m.ub).status == "optimal"
    # Tighten one bound and re-solve from the engine's basis vs cold.
    ub = m.ub.copy()
    ub[3] = 0.0
    warm = engine.solve(m.lb, ub)
    cold = solve_lp(m, ub=ub)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
    assert warm.iterations <= cold.iterations


@pytest.mark.parametrize("trial", range(4))
def test_resolve_through_bound_changes_matches_cold_linprog(trial, monkeypatch):
    for limit in REPRESENTATIONS.values():
        monkeypatch.setattr(simplex, "DENSE_MAX_ROWS", limit)
        _resolve_through_bound_changes(trial)


def _resolve_through_bound_changes(trial):
    """One engine re-solved through random tightenings and relaxations, some
    of them infeasible, agrees with a cold HiGHS solve at every step and
    leaves a dual-feasible basis at every optimum."""
    rng = np.random.default_rng(500 + trial)
    mm, nn = 14, 20
    A = rng.normal(size=(mm, nn)) * (rng.random((mm, nn)) < 0.4)
    senses = rng.choice(["L", "G", "E"], size=mm, p=[0.5, 0.35, 0.15])
    b = A @ rng.random(nn)
    b += np.where(senses == "L", rng.random(mm), np.where(senses == "G", -rng.random(mm), 0.0))
    c = rng.normal(size=nn)
    lb0, ub0 = np.zeros(nn), np.ones(nn)
    m = _model(c, A, senses, b, lb0, ub0)
    engine = BoundedSimplex(m.A, m.rhs, list(m.row_sense), m.obj)
    lb, ub = lb0.copy(), ub0.copy()
    seen = []
    for _ in range(40):
        cols = rng.choice(nn, size=int(rng.integers(1, 5)), replace=False)
        move = rng.integers(3)
        if move == 0:  # fix at a bound, as a branch does
            vals = rng.integers(0, 2, size=cols.size).astype(float)
            lb[cols], ub[cols] = vals, vals
        elif move == 1:  # tighten inside the box
            lb[cols] = np.minimum(rng.random(cols.size) * 0.5, ub[cols])
        else:  # relax back to the original box
            lb[cols], ub[cols] = lb0[cols], ub0[cols]
        if seen and seen[-1] == "infeasible":  # backtrack to the root box
            lb, ub = lb0.copy(), ub0.copy()
        mine = engine.solve(lb, ub)
        _assert_bookkeeping(engine, lb, ub, senses)
        ref = _reference(c, A, senses, b, list(zip(lb, ub)))
        assert mine.status == LINPROG_STATUS[ref.status]
        if ref.status == 0:
            assert mine.objective == pytest.approx(ref.fun, abs=1e-8)
            _assert_dual_feasible(engine)
        seen.append(mine.status)
    assert "infeasible" in seen[:-1] and "optimal" in seen


def test_basis_forms_agree_through_a_pivot_sequence(monkeypatch):
    """The sparse factors and the dense tableau, driven through one pivot
    sequence past a rebuild of the tableau, give the same pivot rows and
    entering columns, and the tableau's slack block stays the inverse of
    the basis."""
    rng = np.random.default_rng(11)
    mm, nn = 20, 30
    A = rng.normal(size=(mm, nn)) * (rng.random((mm, nn)) < 0.5)
    m = _model(rng.normal(size=nn), A, ["L"] * mm, np.ones(mm), [0.0] * nn, [1.0] * nn)
    engines = []
    for limit in (REPRESENTATIONS["sparse"], REPRESENTATIONS["dense"]):
        monkeypatch.setattr(simplex, "DENSE_MAX_ROWS", limit)
        engine = BoundedSimplex(m.A, m.rhs, list(m.row_sense), m.obj)
        engine.solve(m.lb, m.ub)
        engine._slack_start()
        engines.append(engine)
    sparse, dense = engines
    Aaug = dense.Aaug_csc.toarray()
    rebuilt = False
    for _ in range(simplex.REFACTOR_EVERY + 20):
        q = int(rng.choice(np.flatnonzero(sparse.status != BASIC)))
        w = sparse.inv.column(q)
        r = int(np.argmax(np.abs(w)))
        row = sparse.inv.pivot_row(r)
        for got, want in ((dense.inv.column(q), w), (dense.inv.pivot_row(r), row)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        for engine in engines:
            engine._at_bound(int(engine.basic[r]), AT_LOWER)
            engine._replace(r, q, engine.inv.column(q))
        assert np.array_equal(sparse.basic, dense.basic)
        rebuilt |= dense.inv.updates == 0
        inv = np.linalg.inv(Aaug[:, dense.basic])
        assert np.abs(dense.inv.inv - inv).max() <= 1e-9 * np.abs(inv).max()
    assert rebuilt


def test_unpresolved_desk_lp_matches_highs(cigre_network, cigre_demand):
    """The LP relaxation of the bundled-grid desk model (17 vehicles, seed
    42, scenario A, single-port chargers), solved without presolve, equals a
    cold HiGHS solve. Its dual pass ends on a basis whose updated reduced
    costs call it dual infeasible; the primal pass finishes it."""
    sched, vehicles = generate_commute_fleet(
        cigre_network.cluster_nodes(1), cigre_network.cluster_nodes(2), 17, seed=42
    )
    inst = prepare_instance(cigre_network, cigre_demand, sched, vehicles,
                            scenario="A", chargers="spc")
    m = build_plan_model(inst)
    assert m.n_rows == 5403
    res = solve_lp(m)
    senses = np.asarray(m.row_sense)
    sign = np.where(senses == "G", -1.0, 1.0)
    ineq = senses != "E"
    signed = sp.diags(sign) @ m.A
    ref = linprog(m.obj, A_ub=signed[ineq], b_ub=(sign * m.rhs)[ineq], A_eq=m.A[~ineq],
                  b_eq=m.rhs[~ineq], bounds=list(zip(m.lb, m.ub)), method="highs")
    assert ref.status == 0 and res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, rel=1e-7)


def test_model_without_rows():
    m = _model([1.0, -2.0, 0.0], [], [], [], [-1.0, 0.0, -np.inf], [3.0, 4.0, np.inf])
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-9.0)
    assert list(res.x[:2]) == [-1.0, 4.0]
    unbounded = _model([-1.0], [], [], [], [0.0], [np.inf])
    assert solve_lp(unbounded).status == "unbounded"


def test_start_that_is_not_dual_feasible():
    # A negative cost on a column without an upper bound: no bound fits its
    # reduced cost, so the dual pass runs on a zero cost and the primal
    # finishes, reporting unbounded here and the row's limit once bounded.
    m = _model([-1.0], [[1.0]], ["G"], [0.0], [0.0], [np.inf])
    assert solve_lp(m).status == "unbounded"
    capped = _model([-1.0, 1.0], [[1.0, 0.0], [1.0, -1.0]], ["G", "L"], [0.0, 5.0],
                    [0.0, 0.0], [np.inf, 2.0])
    res = solve_lp(capped)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0)
    ref = _reference([-1.0, 1.0], np.array([[1.0, 0.0], [1.0, -1.0]]), ["G", "L"], [0.0, 5.0],
                     [(0, None), (0, 2)])
    assert res.objective == pytest.approx(ref.fun, abs=1e-8)


def test_reduced_costs_signs():
    m = _model([2.0, -3.0], [[1.0, 1.0]], ["L"], [10.0], [0.0, 0.0], [4.0, 4.0])
    res = solve_lp(m)
    # x0 at lower bound: reduced cost >= 0; x1 at upper: <= 0.
    assert res.reduced_costs[0] >= -1e-9
    assert res.reduced_costs[1] <= 1e-9


# Run in a fresh interpreter: which of scipy's linear-algebra packages are
# loaded after the pipeline imports, after a build and an MPS export, and
# after a solve, and the solve's objective.
FOOTPRINT_SCRIPT = """
import json, sys
LINALG = ("scipy.sparse.linalg", "scipy.linalg")
loaded = lambda: [name for name in LINALG if name in sys.modules]
import evplan.analysis, evplan.builder, evplan.mps_io, evplan.verify
import evplan.cli
out = {"imported": loaded()}
from evplan.builder import build_plan_model
from evplan.mps_io import export_mps
from evplan.solution import SolverConfig, solve_plan
from helpers import tiny_instance
inst = tiny_instance(seed=SEED)
model = build_plan_model(inst)
export_mps(model, sys.argv[1])
out["exported"] = loaded()
sol = solve_plan(inst, SolverConfig(gap=0.0), model=model)
out.update(solved=loaded(), status=sol.status, objective=sol.objective)
print(json.dumps(out))
"""


def test_build_and_export_leave_the_linear_algebra_unloaded(tmp_path):
    # evplan build and export never factor a basis, so they must not pay
    # for SuperLU and BLAS; the first solve loads them and still reaches
    # the exhaustive oracle's optimum.
    seed = 200
    src, tests = Path(simplex.__file__).resolve().parents[1], Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT.replace("SEED", str(seed)), str(tmp_path / "tiny.mps")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["imported"] == [] and out["exported"] == []
    assert "scipy.sparse.linalg" in out["solved"]
    orc = brute_force_oracle(tiny_instance(seed=seed), max_free_binaries=40)
    assert orc.status == "optimal"
    assert out["status"] == "optimal" and out["objective"] == orc.objective
