import numpy as np
import pytest

from evplan.errors import LoadFlowDivergenceError
from evplan.loadflow import solve_load_flow

from helpers import two_bus_exact_voltage, two_bus_network


def test_no_load_is_flat_without_shunts():
    net = two_bus_network()
    op = solve_load_flow(net, np.zeros(2), np.zeros(2))
    assert op.voltage_pu[1] == pytest.approx(net.slack_voltage_pu, abs=1e-9)
    assert op.current_a[0] == pytest.approx(0.0, abs=1e-6)
    assert op.slack_kva == pytest.approx(0.0, abs=1e-3)


def test_no_load_cigre_nearly_flat(cigre_network):
    # Cable capacitance lifts the open feeder slightly; the state must stay
    # within a fraction of a percent of the slack setpoint.
    zeros = np.zeros(cigre_network.n_buses)
    op = solve_load_flow(cigre_network, zeros, zeros)
    assert np.all(np.abs(op.voltage_pu - cigre_network.slack_voltage_pu) < 5e-3)
    assert np.all(op.current_a < 20.0)


def test_two_bus_matches_closed_form():
    net = two_bus_network()
    for p, q in ((50.0, 10.0), (200.0, 80.0), (400.0, 150.0)):
        op = solve_load_flow(net, np.array([0.0, p]), np.array([0.0, q]))
        exact = two_bus_exact_voltage(net, p, q)
        assert op.voltage_pu[1] == pytest.approx(exact, abs=1e-8)


def test_two_bus_beyond_maximum_transfer_diverges():
    net = two_bus_network()
    # Find the closed-form maximum transfer at unity power factor, then ask
    # for more.
    p = 100.0
    while True:
        try:
            two_bus_exact_voltage(net, p, 0.0)
        except ValueError:
            break
        p *= 1.5
    with pytest.raises(LoadFlowDivergenceError):
        solve_load_flow(net, np.array([0.0, p]), np.zeros(2))


def test_demand_must_cover_every_bus(cigre_network):
    with pytest.raises(ValueError):
        solve_load_flow(cigre_network, np.zeros(3), np.zeros(cigre_network.n_buses))


def test_mismatch_below_tolerance(cigre_network, cigre_demand):
    p, q = cigre_demand.demand_at(cigre_network, 20)
    op = solve_load_flow(cigre_network, p, q)
    assert op.mismatch_pu <= 1e-8


def test_downstream_voltage_weakly_decreases(cigre_network, cigre_demand):
    # Demand-positive monotonicity along the radial feeder, checked by
    # finite differences on the exact model.
    p, q = cigre_demand.demand_at(cigre_network, 12)
    base = solve_load_flow(cigre_network, p, q)
    bumped = p.copy()
    bumped[cigre_network.bus_index(3)] += 50.0
    after = solve_load_flow(cigre_network, bumped, q)
    downstream = [3, 4, 5, 6, 8, 9, 10, 11]
    for node in downstream:
        i = cigre_network.bus_index(node)
        assert after.voltage_pu[i] <= base.voltage_pu[i] + 1e-9


def test_slack_absorbs_balance(cigre_network, cigre_demand):
    p, q = cigre_demand.demand_at(cigre_network, 6)
    op = solve_load_flow(cigre_network, p, q)
    # The slack must cover total demand plus losses.
    assert op.slack_kva >= p.sum()
    assert op.slack_kva < 1.2 * np.hypot(p.sum(), q.sum()) + 500.0


def test_line_currents_match_per_line_formula(cigre_network, cigre_demand):
    net = cigre_network
    p, q = cigre_demand.demand_at(net, 18)
    op = solve_load_flow(net, p, q)
    v = op.voltage_pu * np.exp(1j * op.angle_rad)
    zb = net.z_base_ohm
    for k, ln in enumerate(net.lines):
        a, b = net.bus_index(ln.from_bus), net.bus_index(ln.to_bus)
        y_ser = zb / (ln.r_ohm + 1j * ln.x_ohm)
        ref = abs((v[a] - v[b]) * y_ser + v[a] * 0.5j * ln.b_s * zb) * net.i_base_a
        assert op.current_a[k] == pytest.approx(ref, rel=1e-9, abs=1e-9)
