import hashlib

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from evplan.builder import COUNT_FAMILIES, EDGE_FAMILIES, VT_FAMILIES, build_plan_model
from evplan.fleet import generate_commute_fleet
from evplan.instance import prepare_instance
from evplan.milp import BINARY, CONTINUOUS, MilpModel
from evplan.presolve import presolve
from evplan.simplex import solve_lp

from helpers import tiny_instance


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


def test_empty_column_with_unbounded_cost_is_unbounded():
    # The row holds for every x >= 0 and binary b, so presolve drops it and
    # leaves x in no row, its cost falling without limit.
    m = MilpModel()
    x = m.add_column("x", CONTINUOUS, 0, np.inf, obj=-1.0)
    b = m.add_column("b", BINARY, 0, 1, obj=1.0)
    m.add_row("r", [(x, 1.0), (b, -1.0)], "G", -5.0)
    m.freeze()
    assert presolve(m).status == "unbounded"


def merged_integer_model(y_min: float) -> MilpModel:
    """Binary b tied to continuous y in [0, 10] by b - y = 0. Rows 2y <= 1
    and y >= ``y_min`` tighten y in the pass that merges b and y, so b's
    own bounds stay [0, 1]; z and w give the model an optimum of -1."""
    m = MilpModel()
    b = m.add_column("b", BINARY, 0, 1, obj=-1.0)
    z = m.add_column("z", BINARY, 0, 1, obj=-1.0)
    y = m.add_column("y", CONTINUOUS, 0.0, 10.0)
    w = m.add_column("w", CONTINUOUS, 0.0, 3.0, obj=0.3)
    m.add_row("tie", [(b, 1.0), (y, -1.0)], "E", 0.0)
    m.add_row("cap", [(y, 2.0)], "L", 1.0)
    if y_min:
        m.add_row("floor", [(y, 1.0)], "G", y_min)
    m.add_row("r3", [(b, 1.0), (z, 1.0), (w, -1.0)], "L", 1.2)
    m.add_row("r4", [(b, 2.0), (z, -1.0), (w, 1.0)], "L", 2.6)
    return m.freeze()


def test_merged_integer_column_has_rounded_bounds():
    # The merged column of b and y is integer, so its bounds [0, 0.5]
    # round to [0, 0] and it is fixed; unrounded, it stayed [0, 0.5].
    m = merged_integer_model(0.0)
    pre = presolve(m)
    assert pre.status == "reduced"
    red = pre.reduced
    assert red.col_of.tolist() == [-1, 0, -1, 1]
    assert pre.fixed[[0, 2]].tolist() == [0.0, 0.0]
    ints = np.flatnonzero(red.is_int)
    assert np.array_equal(red.lb[ints], np.round(red.lb[ints]))
    assert np.array_equal(red.ub[ints], np.round(red.ub[ints]))
    from evplan.bnb import SolverConfig, solve_bnb

    res = solve_bnb(m, SolverConfig(gap=0.0, abs_gap=1e-9))
    assert res.status == "optimal" and res.objective == pytest.approx(-1.0)
    assert m.check_point(res.x) == []


def test_merged_integer_column_with_crossed_bounds_is_infeasible():
    # y in [0.3, 0.5] leaves the merged integer column no whole value;
    # unrounded, it stayed [0.3, 0.5] for the search to find infeasible.
    assert presolve(merged_integer_model(0.3)).status == "infeasible"


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
        assert not m.check_point(mine.x)


@pytest.mark.parametrize("trial", range(40))
def test_random_mixed_milp_presolve_preserves_optimum(trial):
    # Continuous columns with infinite or fractional bounds beside binaries,
    # so that row activities hold infinite terms. Each cost points towards
    # a finite bound, which keeps every model bounded.
    rng = np.random.default_rng(5000 + trial)
    nn, mm = int(rng.integers(3, 12)), int(rng.integers(2, 10))
    m = MilpModel()
    for j in range(nn):
        if rng.random() < 0.5:
            m.add_column(f"x{j}", BINARY, 0, 1, obj=float(rng.choice([0.0, 1.0, -1.0, 2.5])))
            continue
        lo = float(rng.choice([0.0, -np.inf, -2.0, -0.5]))
        hi = float(rng.choice([1.0, np.inf, 3.0, 0.75]))
        cost = float(rng.choice([0.0, 1.0, -0.3]))
        if (cost > 0 and lo == -np.inf) or (cost < 0 and hi == np.inf):
            cost = -cost if np.isfinite(lo) or np.isfinite(hi) else 0.0
        m.add_column(f"x{j}", CONTINUOUS, lo, hi, obj=cost)
    for i in range(mm):
        k = int(rng.integers(1, min(nn, 5) + 1))
        cols = rng.choice(nn, size=k, replace=False)
        vals = rng.choice([1.0, -1.0, 2.0, 0.5, -1.5, 3.3], size=k)
        rhs = float(rng.choice([0.0, 1.0, -1.0, 2.0, 0.3]))
        if k == 2 and rng.random() < 0.6:  # a x - a y (=|<=|>=) 0
            vals[1], rhs = -vals[0], 0.0
        m.add_row(f"r{i}", list(zip(cols.tolist(), vals.tolist())),
                  str(rng.choice(["L", "G", "E"])), rhs)
    m.freeze()

    senses = np.asarray(m.row_sense)
    ref = milp(m.obj, integrality=m.is_int.astype(int), bounds=Bounds(m.lb, m.ub),
               constraints=LinearConstraint(m.A, np.where(senses == "L", -np.inf, m.rhs),
                                            np.where(senses == "G", np.inf, m.rhs)))
    from evplan.bnb import SolverConfig, solve_bnb

    mine = solve_bnb(m, SolverConfig(gap=0.0, abs_gap=1e-9))
    if ref.status == 2:  # infeasible
        assert mine.status == "infeasible"
    else:
        assert ref.status == 0
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
        assert not m.check_point(mine.x)


def reduced_digest(red) -> str:
    """sha256 over every field of a reduced model, bit for bit: the CSR
    arrays, the row and column vectors (signed zeros included), the senses,
    each reduced column's original columns and the objective offset's
    repr."""
    h = hashlib.sha256()
    for arr in (red.A.indptr, red.A.indices):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    for arr in (red.A.data, red.rhs, red.lb, red.ub, red.obj):
        h.update(np.asarray(arr, dtype=np.float64).tobytes())
    h.update(np.asarray(red.is_int, dtype=bool).tobytes())
    h.update("".join(red.senses).encode())
    h.update(repr([np.flatnonzero(red.col_of == k).tolist()
                   for k in range(red.n_cols)]).encode())
    h.update(repr(red.obj_offset).encode())
    return h.hexdigest()


# Presolved (rows, columns, nonzeros) of the desk model: bundled grid,
# 17 commuting vehicles, seed 42.
DESK_PRESOLVED = {
    ("spc", "A"): (1484, 427, 9979),
    ("spc", "B"): (2034, 1155, 11435),
    ("mpc", "A"): (1571, 435, 10358),
    ("mpc", "B"): (2121, 1163, 11814),
}
# reduced_digest of the same four models.
DESK_DIGESTS = {
    ("spc", "A"): "a92f8bd8510c16102d045866f50a5729a54851390f8779d6d8bba1cd501e9df0",
    ("spc", "B"): "d275ce0782e860caa39d8cc04c335fe5bf738ad5fe06db28eb986f5505469c19",
    ("mpc", "A"): "b860998e81f4faa86a255d439e5a9307a7a2cffdf60fa01a0318a544b2b53bc3",
    ("mpc", "B"): "4d3d2368cccab62fe160804d09ad22dae750e1c055a5fba87c145c3942e8fed3",
}


# sha256 of the postsolved point for the reduced point x[k] = k mod 2 of
# the same four models: pins the fixed values and the removal records.
DESK_POSTSOLVED = {
    ("spc", "A"): "20f2bc34c516e59a78a76055ed3f8565dc98feccc50e475cb39cb48b5854d988",
    ("spc", "B"): "ba611daf52322562caad8e0d8f9d6657a2b97cdea7d09816aa10e000eb357fe1",
    ("mpc", "A"): "80199aa8d2f622b33175e1c7f9eb954e791b5ee8573736743552d3e70d02ce7f",
    ("mpc", "B"): "8d3e01071a72fb4bcef02975f8f0972d8b4b455b661a1422ebf92c8e5d1dc6ce",
}


@pytest.fixture(scope="module")
def desk_models(cigre_network, cigre_demand):
    sched, vehicles = generate_commute_fleet(
        cigre_network.cluster_nodes(1), cigre_network.cluster_nodes(2), 17, seed=42
    )
    return {
        (chargers, scenario): build_plan_model(prepare_instance(
            cigre_network, cigre_demand, sched, vehicles, scenario=scenario, chargers=chargers))
        for chargers, scenario in DESK_PRESOLVED
    }


def test_desk_model_presolved_size_is_pinned(desk_models):
    got, digests, postsolved = {}, {}, {}
    for key, model in desk_models.items():
        pre = presolve(model)
        red = pre.reduced
        got[key] = (red.n_rows, red.n_cols, red.A.nnz)
        digests[key] = reduced_digest(red)
        x = pre.postsolve(np.arange(red.n_cols) % 2.0)
        postsolved[key] = hashlib.sha256(np.asarray(x, dtype=np.float64).tobytes()).hexdigest()
    assert got == DESK_PRESOLVED
    assert digests == DESK_DIGESTS
    assert postsolved == DESK_POSTSOLVED


def test_no_reduced_column_joins_two_vehicles(desk_models):
    # Each reduced column holds the columns of one vehicle, or count
    # columns only (-1), so fixing one vehicle's reduced columns fixes no
    # other vehicle's.
    for model in desk_models.values():
        V = model.family("soc_start").size
        vehicle = np.full(model.n_cols, -2)
        for fam in VT_FAMILIES + EDGE_FAMILIES:
            vehicle[model.family(fam)] = np.arange(V)[:, None]
        vehicle[model.family("soc_start")] = np.arange(V)
        for fam in COUNT_FAMILIES:
            vehicle[model.family(fam)] = -1
        assert (vehicle > -2).all()
        col_of = presolve(model).reduced.col_of
        kept = col_of >= 0
        pairs = np.unique(np.stack([col_of[kept], vehicle[kept]]), axis=1)
        assert np.array_equal(pairs[0], np.unique(col_of[kept]))


# reduced_digest of the tiny models whose search test_bnb pins.
TINY_DIGESTS = {
    (1000, "spc", "A"): "897c9e6197ce4570dd2c06acca49ea5a64393bdc06e7167b05b40ffa1de23583",
    (1000, "spc", "B"): "897c9e6197ce4570dd2c06acca49ea5a64393bdc06e7167b05b40ffa1de23583",
    (1000, "mpc", "A"): "5f601e1c3eec052b9cfa842ecec37387a9c142e5a7b944d2255e8f919fcf4509",
    (1000, "mpc", "B"): "5f601e1c3eec052b9cfa842ecec37387a9c142e5a7b944d2255e8f919fcf4509",
    (1001, "spc", "A"): "7def07ff27b0b42360eac743589459c3847ec4cb61e668743a77e6962dca14a5",
    (1001, "spc", "B"): "7def07ff27b0b42360eac743589459c3847ec4cb61e668743a77e6962dca14a5",
    (1001, "mpc", "A"): "757d65ffeb2a070ef6c25b0f7d8c29da036844b1e0505f3c96b8516402776c70",
    (1001, "mpc", "B"): "757d65ffeb2a070ef6c25b0f7d8c29da036844b1e0505f3c96b8516402776c70",
    (1002, "spc", "A"): "3fb11884d60517526738e5cf1ee69e632eebae9f3667d9d3d9fad4342e015496",
    (1002, "spc", "B"): "3fb11884d60517526738e5cf1ee69e632eebae9f3667d9d3d9fad4342e015496",
    (1002, "mpc", "A"): "f47ad4a4ac0a1bd842df9e9bef571543912ed2a2212b24b529d21dc8c995c0cf",
    (1002, "mpc", "B"): "f47ad4a4ac0a1bd842df9e9bef571543912ed2a2212b24b529d21dc8c995c0cf",
    (1003, "spc", "A"): "1ba7e7dba3d883755d5d0f2a72b2f5096df7fc0cc051219430b99ab396d6255e",
    (1003, "spc", "B"): "1ba7e7dba3d883755d5d0f2a72b2f5096df7fc0cc051219430b99ab396d6255e",
    (1003, "mpc", "A"): "5e00a5be5b7769593029d8ec02d09376f6301e3953bb93a3114b0a850b5776d9",
    (1003, "mpc", "B"): "5e00a5be5b7769593029d8ec02d09376f6301e3953bb93a3114b0a850b5776d9",
}


@pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
def test_tiny_reduced_models_are_pinned(seed):
    got = {}
    for chargers, scenario in DESK_PRESOLVED:
        red = presolve(build_plan_model(
            tiny_instance(seed=seed, scenario=scenario, chargers=chargers))).reduced
        got[(seed, chargers, scenario)] = reduced_digest(red)
    assert got == {k: v for k, v in TINY_DIGESTS.items() if k[0] == seed}
