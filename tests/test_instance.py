"""prepare_instance's reuse of a grid's EV-free linearization."""

from dataclasses import replace

import numpy as np
import pytest

from evplan import instance as instance_module
from evplan.errors import InfeasibleBasePointError, LoadFlowDivergenceError
from evplan.instance import prepare_instance
from evplan.linear_grid import GridLimits, linear_grid_constraints

from helpers import tiny_instance


@pytest.fixture
def case():
    """A tiny case on a grid object no linearization was made on yet."""
    inst = tiny_instance(seed=202)
    return replace(inst, network=replace(inst.network))


@pytest.fixture
def load_flows(monkeypatch):
    calls = []
    real = instance_module.solve_load_flow

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(instance_module, "solve_load_flow", counting)
    return calls


def prepare(case, demand=None, network=None, **kwargs):
    return prepare_instance(network or case.network, demand or case.demand, case.schedule,
                            case.vehicles, catalog=case.catalog, **kwargs)


def same_rows(a, b) -> bool:
    return a.kind == b.kind and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("subject", "p_coef", "q_coef", "rhs")
    )


def test_one_linearization_per_grid_and_demand(case, load_flows):
    insts = [prepare(case, scenario=scenario, chargers=chargers)
             for scenario, chargers in (("A", "spc"), ("B", "mpc"), ("A", "mpc"))]
    assert len(load_flows) == case.horizon
    assert all(inst.linearizations is insts[0].linearizations for inst in insts)
    assert insts[0].grid_rows is insts[2].grid_rows
    # The grid is known by identity: an equal copy linearizes again.
    prepare(case, network=replace(case.network))
    assert len(load_flows) == 2 * case.horizon


def test_new_demand_recomputes(case, load_flows):
    first = prepare(case)
    scaled = prepare(case, replace(case.demand, p_kw=case.demand.p_kw * 1.1))
    assert len(load_flows) == 2 * case.horizon
    assert scaled.linearizations is not first.linearizations
    # The grid keeps one entry, so the first demand linearizes again, and the
    # first instance, whose tuple is no longer the grid's, builds its own rows.
    again = prepare(case)
    assert len(load_flows) == 3 * case.horizon
    assert first.grid_rows is not again.grid_rows
    for a, b in zip(first.grid_rows, again.grid_rows, strict=True):
        assert same_rows(a, b)


def test_diverging_demand_raises_on_every_call(case, load_flows):
    huge = replace(case.demand, p_kw=case.demand.p_kw * 1e5)
    with pytest.raises(LoadFlowDivergenceError):
        prepare(case, huge)
    tried = len(load_flows)
    with pytest.raises(LoadFlowDivergenceError):
        prepare(case, huge)
    assert len(load_flows) == 2 * tried > 0


def test_grid_rows_per_limits(case):
    insts = [prepare(case, limits=limits)
             for limits in (GridLimits(), GridLimits(0.9, 1.1), GridLimits())]
    for inst in insts:
        for sens, block in zip(inst.linearizations, inst.grid_rows, strict=True):
            assert same_rows(block, linear_grid_constraints(sens, case.network, inst.limits))
    assert insts[0].grid_rows is insts[2].grid_rows
    assert insts[0].grid_rows is not insts[1].grid_rows
    # An instance given other coefficients builds rows from them.
    reversed_ = replace(insts[0], linearizations=insts[0].linearizations[::-1])
    assert same_rows(reversed_.grid_rows[0], insts[0].grid_rows[-1])
    # The EV-free voltages sit near 1.0 pu, above this band.
    tight = GridLimits(0.90, 0.95)
    for _ in range(2):
        with pytest.raises(InfeasibleBasePointError):
            prepare(case, limits=tight).grid_rows


def test_shared_arrays_are_read_only(case):
    inst = prepare(case)
    sens = inst.linearizations[0]
    for arr in (sens.dv_dp, sens.ds0_dq, sens.point.voltage_pu, inst.grid_rows[0].rhs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
