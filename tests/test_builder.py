import numpy as np
import pytest

from evplan.builder import build_plan_model
from evplan.errors import EvPlanError, ScheduleError
from evplan.fleet import FleetSchedule
from evplan.milp import SENSE_GE, SENSE_LE

from helpers import TINY_CATALOG, tiny_instance


@pytest.fixture(scope="module")
def inst_a():
    return tiny_instance(seed=101, scenario="A", chargers="spc")


@pytest.fixture(scope="module")
def model_a(inst_a):
    return build_plan_model(inst_a)


def test_binary_column_count(inst_a, model_a):
    V, T = inst_a.n_vehicles, inst_a.horizon
    assert model_a.n_binary == 8 * V * T


def test_plug_logic_row_count(inst_a, model_a):
    V, T = inst_a.n_vehicles, inst_a.horizon
    plug_rows = [n for n in model_a.row_names if n.startswith(("plug_cap", "fast_chg_le", "slow_chg_le"))]
    assert len(plug_rows) == 3 * V * T


def test_grid_rows_per_interval(inst_a, model_a):
    n = len(inst_a.node_ids)
    l = inst_a.network.n_lines
    rated = sum(
        1
        for b in inst_a.network.buses
        if b.id != inst_a.network.slack_bus and b.rating_kva is not None
    )
    per_t = 2 * n + l + 1 + 2 * rated
    grid_rows = [n_ for n_ in model_a.row_names if n_.startswith("grid[")]
    assert len(grid_rows) == per_t * inst_a.horizon


def test_edge_rows_count(inst_a, model_a):
    V, T = inst_a.n_vehicles, inst_a.horizon
    edge_rows = [n for n in model_a.row_names if n.startswith(("fast_conn", "fast_disc", "slow_conn", "slow_disc"))]
    assert len(edge_rows) == 4 * V * T


def test_build_is_deterministic(inst_a):
    m1 = build_plan_model(inst_a)
    m2 = build_plan_model(inst_a)
    assert m1.col_names == m2.col_names
    assert m1.row_names == m2.row_names
    assert (m1.A != m2.A).nnz == 0
    assert np.array_equal(m1.obj, m2.obj)
    assert np.array_equal(m1.lb, m2.lb)
    assert np.array_equal(m1.ub, m2.ub)


def test_driving_interval_forces_plug_zero(inst_a, model_a):
    # Rows plug_cap have rhs 0 whenever the vehicle is driving.
    parked = inst_a.schedule.parked.any(axis=2)
    for r, name in enumerate(model_a.row_names):
        if name.startswith("plug_cap["):
            v, t = (int(x) for x in name[9:-1].split(","))
            assert model_a.rhs[r] == (1.0 if parked[v, t] else 0.0)


def test_soc_final_row_forces_recharge(inst_a, model_a):
    # Sum of charge-energy coefficients must cover the driven energy.
    for r, name in enumerate(model_a.row_names):
        if name.startswith("soc_final["):
            v = int(name[10:-1])
            veh = inst_a.vehicles[v]
            need = inst_a.schedule.discharge_kw[v].sum() * inst_a.schedule.ts_hours / veh.battery_kwh
            assert model_a.row_sense[r] == SENSE_GE
            assert model_a.rhs[r] == pytest.approx(need)


def test_soc_coefficients(inst_a, model_a):
    veh = inst_a.vehicles[0]
    kf = veh.efficiency * TINY_CATALOG.fast_kw / veh.battery_kwh
    row = model_a.row_names.index("soc_lo[0,1]")
    cols = model_a.A[row].tocoo()
    fc0 = model_a.column_of("fast_charge", 0, 0)
    coef = {int(c): v for c, v in zip(cols.col, cols.data)}
    assert coef[fc0] == pytest.approx(kf)
    assert coef[model_a.column_of("soc_start", 0)] == 1.0


def test_box_row_uses_rating_minus_base(inst_a, model_a):
    node = inst_a.node_ids[0]
    bus = inst_a.network.buses[inst_a.network.bus_index(node)]
    r = model_a.row_names.index(f"grid[0]:box_hi[{node}]")
    base = inst_a.demand.p_kw[inst_a.demand.row(node), 0]
    assert model_a.rhs[r] == pytest.approx(bus.rating_kva * bus.power_factor - base)


def test_spc_ties_plugs_to_chargers(inst_a, model_a):
    ties = [n for n in model_a.row_names if n.startswith(("spc_fast_tie", "spc_slow_tie"))]
    assert len(ties) == 2 * len(inst_a.node_ids)


def test_mpc_uses_charge_for_slow_by_default():
    inst = tiny_instance(seed=101, scenario="A", chargers="mpc")
    model = build_plan_model(inst)
    row = next(n for n in model.row_names if n.startswith("mpc_slow_chargers"))
    r = model.row_names.index(row)
    cols = set(model.A[r].tocoo().col)
    slow_charge_cols = set(model.family("slow_charge").ravel())
    slow_plug_cols = set(model.family("slow_plug").ravel())
    assert cols & slow_charge_cols
    assert not (cols & slow_plug_cols)


def test_mpc_slow_literal_switch():
    inst = tiny_instance(seed=101, scenario="A", chargers="mpc", mpc_slow_literal=True)
    model = build_plan_model(inst)
    row = next(n for n in model.row_names if n.startswith("mpc_slow_chargers"))
    r = model.row_names.index(row)
    cols = set(model.A[r].tocoo().col)
    assert cols & set(model.family("slow_plug").ravel())


def test_objective_prices(inst_a, model_a):
    cat = inst_a.catalog
    j = model_a.column_of("slow_chargers", 0)
    assert model_a.obj[j] == cat.slow_charger_cost
    j = model_a.column_of("fast_plugs", 0)
    assert model_a.obj[j] == cat.fast_plug_cost
    for fam in ("fast_charge", "slow_plug", "fast_connect"):
        assert np.all(model_a.obj[model_a.family(fam)] == 0.0)


def test_scenario_a_bans_as_bounds(inst_a, model_a):
    # A vehicle's connects outside {evening arrival, work arrival, 0} are
    # pinned to zero.
    v = 0
    arr_home, dep_home, arr_work, dep_work = inst_a.schedule.stay_bounds[v]
    allowed = {int(arr_home), int(arr_work)}
    if inst_a.schedule.is_parked(v, 0):
        allowed.add(0)
    conn = model_a.family("fast_connect")
    for t in range(inst_a.horizon):
        ub = model_a.ub[conn[v, t]]
        assert ub == (1.0 if t in allowed else 0.0)


def test_scenario_b_budget_rows():
    inst = tiny_instance(seed=101, scenario="B", chargers="spc")
    model = build_plan_model(inst)
    budget = [n for n in model.row_names if n.startswith("midday_budget")]
    assert len(budget) == 2 * inst.n_vehicles
    r = model.row_names.index(budget[0])
    assert model.row_sense[r] == SENSE_LE
    assert model.rhs[r] == 1.0


def test_builder_rejects_double_parking(inst_a):
    bad = inst_a.schedule.parked.copy()
    bad[0, 0, :2] = True
    sched = FleetSchedule(
        node_ids=inst_a.schedule.node_ids,
        parked=bad,
        discharge_kw=inst_a.schedule.discharge_kw,
        stay_bounds=inst_a.schedule.stay_bounds,
    )
    from dataclasses import replace

    with pytest.raises(ScheduleError):
        build_plan_model(replace(inst_a, schedule=sched))


def reference_parked_col(inst) -> np.ndarray:
    """``PlanInstance.parked_col`` one vehicle-hour at a time."""
    order = {n: k for k, n in enumerate(inst.node_ids)}
    out = np.full((inst.n_vehicles, inst.horizon), -1, dtype=np.int32)
    for v in range(inst.n_vehicles):
        for t in range(inst.horizon):
            node = inst.schedule.node_at(v, t)
            if node is not None:
                out[v, t] = order[node]
    return out


@pytest.mark.parametrize("seed", [101, 150, 202])
def test_parked_col_matches_hourly_lookup(seed):
    inst = tiny_instance(seed=seed, scenario="A", chargers="spc")
    assert inst.parked_col.dtype == np.int32
    assert np.array_equal(inst.parked_col, reference_parked_col(inst))
    assert inst.parked_col.min() == -1


def test_parked_col_rejects_double_parking(inst_a):
    from dataclasses import replace

    bad = inst_a.schedule.parked.copy()
    bad[1, 3, :2] = True
    bad[0, 4, :2] = True
    sched = replace(inst_a.schedule, parked=bad)
    with pytest.raises(ScheduleError, match="vehicle 0 parked at several nodes at t=4"):
        replace(inst_a, schedule=sched).parked_col


def test_missing_linearization_fails_to_build(inst_a):
    from dataclasses import replace

    short = replace(inst_a, linearizations=inst_a.linearizations[:-1])
    with pytest.raises(EvPlanError):
        build_plan_model(short)


@pytest.mark.parametrize("chargers", ["spc", "mpc"])
def test_grid_coupling_matches_grid_rows(chargers):
    # Row k of hour t carries P[k, n] * kW + Q[k, n] * kVAr on the charge
    # column of every vehicle parked at node n in hour t, and nothing else.
    inst = tiny_instance(seed=101, scenario="B", chargers=chargers)
    model = build_plan_model(inst)
    cat = inst.catalog
    grid = np.array([meta[:1] == ("grid",) for meta in model.row_meta])
    expected = np.zeros((model.n_rows, model.n_cols))
    for t, block in enumerate(inst.grid_rows):
        rows = [r for r, meta in enumerate(model.row_meta) if meta[:2] == ("grid", t)]
        assert len(rows) == len(block)
        assert [model.row_meta[r][2:] for r in rows] == list(zip(block.kind, block.subject.tolist()))
        assert np.array_equal(model.rhs[rows], block.rhs)
        for v in range(inst.n_vehicles):
            n = inst.parked_col[v, t]
            if n < 0:
                continue
            for fam, kw, kvar in (("fast_charge", cat.fast_kw, cat.fast_kvar),
                                  ("slow_charge", cat.slow_kw, cat.slow_kvar)):
                expected[rows, model.column_of(fam, v, t)] = block.p_coef[:, n] * kw + block.q_coef[:, n] * kvar
    assert inst.parked_col.min() < 0 <= inst.parked_col.max()
    assert np.array_equal(model.A.toarray()[grid], expected[grid])


def test_edge_boundary_row_at_first_interval(inst_a, model_a):
    # The fleet starts unplugged, so the first connect row reads c0 >= y0
    # and the first disconnect row is slack (d0 >= -y0).
    r = model_a.row_names.index("fast_connect[0,0]")
    coef = {int(c): v for c, v in zip(model_a.A[r].tocoo().col, model_a.A[r].tocoo().data)}
    assert coef == {
        model_a.column_of("fast_connect", 0, 0): 1.0,
        model_a.column_of("fast_plug", 0, 0): -1.0,
    }
    r = model_a.row_names.index("fast_disconnect[0,0]")
    coef = {int(c): v for c, v in zip(model_a.A[r].tocoo().col, model_a.A[r].tocoo().data)}
    assert coef == {
        model_a.column_of("fast_disconnect", 0, 0): 1.0,
        model_a.column_of("fast_plug", 0, 0): 1.0,
    }


def test_spc_and_mpc_differ_only_in_count_rows(inst_a):
    spc = build_plan_model(inst_a)
    from dataclasses import replace

    mpc = build_plan_model(replace(inst_a, chargers="mpc"))
    count_prefixes = ("spc_", "mpc_")
    spc_rest = [n for n in spc.row_names if not n.startswith(count_prefixes)]
    mpc_rest = [n for n in mpc.row_names if not n.startswith(count_prefixes)]
    assert spc_rest == mpc_rest
    assert spc.col_names == mpc.col_names
