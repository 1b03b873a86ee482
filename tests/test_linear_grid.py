import numpy as np
import pytest

from evplan.errors import InfeasibleBasePointError, ParameterError
from evplan.linear_grid import GridLimits, apparent_power_box, linear_grid_constraints
from evplan.loadflow import solve_load_flow
from evplan.sensitivity import compute_sensitivities
from evplan.verify import linearization_error


@pytest.fixture(scope="module")
def sens18(cigre_network, cigre_demand):
    p, q = cigre_demand.demand_at(cigre_network, 18)
    return compute_sensitivities(cigre_network, solve_load_flow(cigre_network, p, q))


def test_box_values_for_rated_node():
    lo, hi = apparent_power_box(285.0, 0.97)
    assert hi == pytest.approx(276.45)
    assert lo == pytest.approx(-276.45)


def test_box_degenerates_at_unity_power_factor():
    lo, hi = apparent_power_box(100.0, 1.0)
    assert (lo, hi) == (-100.0, 100.0)


def test_box_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        apparent_power_box(100.0, 0.0)
    with pytest.raises(ParameterError):
        apparent_power_box(-5.0, 0.9)
    with pytest.raises(ParameterError):
        apparent_power_box(5.0, 1.2)


def test_limits_reject_non_finite_values():
    GridLimits(0.97, 1.03)
    for lo, hi in ((np.nan, 1.03), (0.97, np.nan), (0.97, np.inf), (-np.inf, 1.03)):
        with pytest.raises(ParameterError):
            GridLimits(lo, hi)


def test_box_is_conservative_by_dense_sampling():
    s, cos_lb = 285.0, 0.97
    lo, hi = apparent_power_box(s, cos_lb)
    q_max = s * np.sin(np.arccos(cos_lb))
    for p in np.linspace(lo, hi, 401):
        assert p * p + q_max * q_max <= s * s + 1e-6


def test_row_layout_and_base_point_feasible(cigre_network, sens18):
    limits = GridLimits(0.97, 1.03)
    rows = linear_grid_constraints(sens18, cigre_network, limits)
    n = len(cigre_network.node_ids)
    rated = sum(
        1 for b in cigre_network.buses if b.rating_kva is not None and b.id != 0
    )
    assert rows.kind == (
        ["v_lo", "v_hi"] * n + ["i_hi"] * cigre_network.n_lines + ["s0_hi"] + ["box_lo", "box_hi"] * rated
    )
    assert rows.subject[: 2 * n].tolist() == [b for b in cigre_network.node_ids for _ in range(2)]
    m = len(sens18.node_ids)
    assert len(rows) == len(rows.kind) == len(rows.subject) == len(rows.rhs)
    assert rows.p_coef.shape == rows.q_coef.shape == (len(rows), m)
    assert np.all(rows.rhs >= -1e-9)


def test_binding_voltage_row_found_by_solving_the_inequality(cigre_network, sens18):
    limits = GridLimits(0.97, 1.03)
    rows = linear_grid_constraints(sens18, cigre_network, limits)
    r = next(r for r, (kind, bus) in enumerate(zip(rows.kind, rows.subject)) if (kind, bus) == ("v_lo", 11))
    col = sens18.node_ids.index(11)
    # Crossing increment solves coef * dP = rhs for the single node.
    coef = rows.p_coef[r, col]
    assert coef > 0.0
    crossing = rows.rhs[r] / coef
    dp = np.zeros(len(sens18.node_ids))

    def margin(dp):
        return (rows.rhs - rows.p_coef @ dp - rows.q_coef @ np.zeros_like(dp))[r]

    dp[col] = crossing * 1.001
    assert margin(dp) < 0.0
    dp[col] = crossing * 0.999
    assert margin(dp) > 0.0


def test_infeasible_base_point_raises(cigre_network, sens18):
    with pytest.raises(InfeasibleBasePointError) as err:
        linear_grid_constraints(sens18, cigre_network, GridLimits(0.999, 1.03))
    assert err.value.violations


def test_zero_increment_has_zero_error(cigre_network, sens18):
    m = len(sens18.node_ids)
    exact, err = linearization_error(cigre_network, sens18, np.zeros(m), np.zeros(m))
    assert exact is not None
    assert err["max_voltage_error_pu"] <= 1e-8
    assert err["slack_error_kva"] <= 1e-6


def test_ten_percent_increments_stay_accurate(cigre_network, sens18):
    base_p = sens18.point.p_kw[cigre_network.node_bus]
    base_q = sens18.point.q_kvar[cigre_network.node_bus]
    for sign in (0.1, -0.1):
        exact, err = linearization_error(cigre_network, sens18, sign * base_p, sign * base_q)
        assert exact is not None
        assert err["max_voltage_error_pu"] <= 5e-3


def test_divergent_scenario_is_flagged(cigre_network, sens18):
    m = len(sens18.node_ids)
    huge = np.full(m, 1e7)
    exact, _ = linearization_error(cigre_network, sens18, np.zeros(m), np.zeros(m))
    assert exact is not None
    exact, err = linearization_error(cigre_network, sens18, huge, huge)
    assert exact is None and err == {}
