import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evplan import sensitivity
from evplan.errors import SensitivityError
from evplan.loadflow import solve_load_flow
from evplan.network import Bus, BusNetwork, Line
from evplan.sensitivity import compute_sensitivities

from helpers import central_difference_sensitivities, two_bus_exact_dv_dp, two_bus_network

BLOCKS = ("dv_dp", "dv_dq", "di_dp", "di_dq", "ds0_dp", "ds0_dq")


@pytest.fixture(scope="module")
def cigre_point(cigre_network, cigre_demand):
    p, q = cigre_demand.demand_at(cigre_network, 18)
    return solve_load_flow(cigre_network, p, q)


@pytest.fixture(scope="module")
def cigre_sens(cigre_network, cigre_point):
    return compute_sensitivities(cigre_network, cigre_point)


def test_two_bus_matches_analytic_derivative():
    net = two_bus_network()
    p, q = 200.0, 60.0
    point = solve_load_flow(net, np.array([0.0, p]), np.array([0.0, q]))
    sens = compute_sensitivities(net, point)
    analytic = two_bus_exact_dv_dp(net, p, q)
    assert sens.dv_dp[1, 0] == pytest.approx(analytic, abs=1e-6)


def test_demand_positive_voltage_sensitivity_is_negative(cigre_network, cigre_sens):
    for col, node in enumerate(cigre_sens.node_ids):
        i = cigre_network.bus_index(node)
        assert cigre_sens.dv_dp[i, col] < 0.0


def test_slack_voltage_sensitivity_is_zero(cigre_network, cigre_sens):
    sl = cigre_network.slack_index
    assert np.all(cigre_sens.dv_dp[sl] == 0.0)
    assert np.all(cigre_sens.dv_dq[sl] == 0.0)


def relative_error(analytic, reference, *names):
    """Largest disagreement over the named blocks, relative to their
    largest reference entry."""
    a = np.concatenate([np.ravel(getattr(analytic, name)) for name in names])
    r = np.concatenate([np.ravel(getattr(reference, name)) for name in names])
    return float(np.max(np.abs(a - r)) / np.max(np.abs(r)))


def test_matches_central_differences_on_bundled_hours(cigre_network, cigre_demand):
    # A step of 1e-5 pu keeps the central differences' truncation error on
    # currents (second order in the step) well below the checked tolerance.
    worst = dict.fromkeys(BLOCKS, 0.0)
    for t in range(cigre_demand.horizon):
        p, q = cigre_demand.demand_at(cigre_network, t)
        point = solve_load_flow(cigre_network, p, q)
        analytic = compute_sensitivities(cigre_network, point)
        reference = central_difference_sensitivities(cigre_network, point, eps_pu=1e-5)
        for name in BLOCKS:
            worst[name] = max(worst[name], relative_error(analytic, reference, name))
    for name in ("dv_dp", "dv_dq", "ds0_dp", "ds0_dq"):
        assert worst[name] <= 1e-6, (name, worst[name])
    for name in ("di_dp", "di_dq"):
        assert worst[name] <= 1e-4, (name, worst[name])


def test_line_without_current_has_zero_row(cigre_network, cigre_point, cigre_sens):
    # Line 7-8 of the bundled grid is open in effect: its current is ~1e-9 A.
    k = next(
        k for k, ln in enumerate(cigre_network.lines) if (ln.from_bus, ln.to_bus) == (7, 8)
    )
    assert cigre_point.current_a[k] < 1e-6
    assert np.all(cigre_sens.di_dp[k] == 0.0)
    assert np.all(cigre_sens.di_dq[k] == 0.0)


def test_singular_jacobian_raises(monkeypatch, cigre_network, cigre_point):
    monkeypatch.setattr(sensitivity, "jacobian", lambda ybus, v, pq: np.zeros((2 * len(pq),) * 2))
    with pytest.raises(SensitivityError):
        compute_sensitivities(cigre_network, cigre_point)


@st.composite
def radial_case(draw):
    """Random radial grid whose last node draws nothing through a line
    without shunt, so that line carries no current."""
    n = draw(st.integers(2, 5))
    ohms = st.floats(0.2, 3.0)
    buses = [Bus(0, 20.0)] + [Bus(k, 20.0) for k in range(1, n + 1)]
    lines = []
    for k in range(1, n + 1):
        parent = draw(st.integers(0, k - 1))
        b_s = 0.0 if k == n else draw(st.floats(0.0, 1e-4))
        lines.append(Line(parent, k, draw(ohms), draw(ohms), b_s))
    net = BusNetwork(
        buses=tuple(buses),
        lines=tuple(lines),
        slack_bus=0,
        slack_voltage_pu=draw(st.floats(0.98, 1.04)),
        transformer_kva=25000.0,
        base_kva=25000.0,
        base_kv=20.0,
    )
    p = np.array([0.0] + [draw(st.floats(50.0, 800.0)) for _ in range(n - 1)] + [0.0])
    q = p * draw(st.floats(0.0, 0.5))
    return net, p, q


@settings(max_examples=40, deadline=None)
@given(radial_case())
def test_matches_central_differences_on_random_radial_grids(case):
    net, p, q = case
    point = solve_load_flow(net, p, q)
    analytic = compute_sensitivities(net, point)
    reference = central_difference_sensitivities(net, point, eps_pu=1e-5)
    # One scale per quantity: at zero reactive demand d|S|/dQ is tiny.
    assert relative_error(analytic, reference, "dv_dp", "dv_dq") <= 1e-5
    assert relative_error(analytic, reference, "ds0_dp", "ds0_dq") <= 1e-5
    idle = net.n_lines - 1  # the line feeding the last, load-free node
    assert point.current_a[idle] < 1e-6
    assert np.all(analytic.di_dp[idle] == 0.0) and np.all(analytic.di_dq[idle] == 0.0)
    a = np.hstack([analytic.di_dp, analytic.di_dq])
    r = np.hstack([reference.di_dp, reference.di_dq])
    scale = np.max(np.abs(r))
    # Central differences read |I| at zero current as O(step), not 0.
    assert np.max(np.abs(a[idle] - r[idle])) <= 1e-3 * scale
    live = np.delete(np.arange(net.n_lines), idle)
    assert np.max(np.abs(a[live] - r[live])) <= 1e-4 * scale


def test_more_demand_raises_slack_power(cigre_sens):
    assert np.all(cigre_sens.ds0_dp > 0.0)


def test_dimensions(cigre_network, cigre_sens):
    n, m, l = cigre_network.n_buses, len(cigre_network.node_ids), cigre_network.n_lines
    assert cigre_sens.dv_dp.shape == (n, m)
    assert cigre_sens.di_dq.shape == (l, m)
    assert cigre_sens.ds0_dp.shape == (m,)
