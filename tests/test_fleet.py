import numpy as np
import pytest

from evplan.errors import ParameterError
from evplan.fleet import (
    ChargerCatalog,
    FleetSchedule,
    Vehicle,
    generate_commute_fleet,
    soc_trajectory,
    validate_schedule,
)
from evplan.fleet_io import dump_fleet, load_fleet

HOMES = [3, 4, 5, 8]
WORKS = [6, 10, 11, 14]


def test_soc_step_with_catalog_numbers():
    cat = ChargerCatalog()
    veh = Vehicle(id=0, battery_kwh=16.0, efficiency=0.9)
    charge = np.zeros(3)
    charge[0] = cat.slow_kw  # 2.4 kVA at pf 0.9 -> 2.16 kW
    soc = soc_trajectory(veh, charge, np.zeros(3), 0.5)
    assert cat.slow_kw == pytest.approx(2.16)
    assert soc[1] == pytest.approx(0.5 + 0.9 * 2.16 / 16.0)
    assert soc[1] == pytest.approx(0.6215)
    assert soc[2] == soc[1]


def test_soc_constant_without_power():
    veh = Vehicle(id=0)
    soc = soc_trajectory(veh, np.zeros(5), np.zeros(5), 0.42)
    assert np.all(soc == 0.42)


def test_soc_returns_to_start_after_matched_cycle():
    veh = Vehicle(id=0, battery_kwh=16.0, efficiency=0.9)
    charge = np.array([2.0, 0.0])
    discharge = np.array([0.0, 2.0 * 0.9])  # discharge is not derated
    soc = soc_trajectory(veh, charge, discharge, 0.5)
    assert soc[-1] == pytest.approx(0.5, abs=1e-12)


def test_fast_rating_times_pf():
    cat = ChargerCatalog()
    assert cat.fast_kw == pytest.approx(45.0)


def test_catalog_invariants():
    with pytest.raises(ParameterError):
        ChargerCatalog(fast_kva=2.0, slow_kva=2.4)
    with pytest.raises(ParameterError):
        ChargerCatalog(slow_pf=0.0)
    with pytest.raises(ParameterError):
        ChargerCatalog(slow_plug_cost=-1.0)


def test_default_unit_costs():
    # One charger plus one plug, per type, under the default price book.
    cat = ChargerCatalog()
    assert cat.fast_charger_cost + cat.fast_plug_cost == 23_000.0
    assert cat.slow_charger_cost + cat.slow_plug_cost == 920.0
    # Plug prices follow the 15% rule on the matching single-port unit.
    assert cat.fast_plug_cost == pytest.approx(0.15 * cat.fast_charger_cost)
    assert cat.slow_plug_cost == pytest.approx(0.15 * cat.slow_charger_cost)


class TestCommuteGenerator:
    def test_deterministic_under_seed(self):
        a_sched, a_veh = generate_commute_fleet(HOMES, WORKS, 5, seed=7)
        b_sched, b_veh = generate_commute_fleet(HOMES, WORKS, 5, seed=7)
        assert np.array_equal(a_sched.parked, b_sched.parked)
        assert np.array_equal(a_sched.discharge_kw, b_sched.discharge_kw)
        assert a_veh == b_veh

    def test_default_vehicle_parameters(self):
        _, vehicles = generate_commute_fleet(HOMES, WORKS, 50, seed=1)
        assert len(vehicles) == 50
        assert all(v.battery_kwh == 16.0 for v in vehicles)
        assert all(v.home_node in HOMES and v.work_node in WORKS for v in vehicles)

    def test_hour_windows_and_leg_ordering(self):
        sched, vehicles = generate_commute_fleet(HOMES, WORKS, 200, seed=3)
        for v in vehicles:
            arr_home, dep_home, arr_work, dep_work = v.stay_bounds
            assert 5 <= dep_home <= 8
            assert 8 <= arr_work <= 11
            assert 14 <= dep_work <= 18
            assert 17 <= arr_home <= 21
            assert arr_work > dep_home
            assert arr_home > dep_work

    def test_daily_energy_matches_configuration(self):
        sched, vehicles = generate_commute_fleet(HOMES, WORKS, 40, seed=11)
        daily = sched.discharge_kw.sum(axis=1) * sched.ts_hours
        assert np.allclose(daily, 4.8, atol=1e-9)

    def test_two_legs_and_two_stay_groups(self):
        sched, _ = generate_commute_fleet(HOMES, WORKS, 30, seed=5)
        for v in range(30):
            driving = ~sched.parked[v].any(axis=1)
            # Two contiguous driving legs.
            runs = np.diff(driving.astype(int))
            assert (runs == 1).sum() == 2
            assert (runs == -1).sum() == 2

    def test_occupancy_plateaus(self):
        sched, vehicles = generate_commute_fleet(HOMES, WORKS, 80, seed=9)
        occ = sched.occupancy()  # (nodes, T)
        node_order = {n: i for i, n in enumerate(sched.node_ids)}
        homes_rows = [node_order[n] for n in HOMES if n in node_order]
        works_rows = [node_order[n] for n in WORKS if n in node_order]
        # Overnight plateau: every vehicle is home at midnight.
        assert occ[homes_rows, 0].sum() == 80
        assert occ[works_rows, 0].sum() == 0
        # Common midday window: everyone is at work.
        latest_arrival = max(v.stay_bounds[2] for v in vehicles)
        earliest_departure = min(v.stay_bounds[3] for v in vehicles)
        if latest_arrival < earliest_departure:
            assert occ[works_rows, latest_arrival].sum() == 80

    def test_validation_of_generated_schedules(self):
        sched, _ = generate_commute_fleet(HOMES, WORKS, 25, seed=2)
        assert validate_schedule(sched) == []

    def test_empty_fleet_rejected(self):
        with pytest.raises(ParameterError):
            generate_commute_fleet(HOMES, WORKS, 0, seed=1)


def test_validate_schedule_flags_double_parking():
    parked = np.zeros((1, 5, 2), dtype=bool)
    parked[0, 3, 0] = parked[0, 3, 1] = True
    sched = FleetSchedule(
        node_ids=(1, 2),
        parked=parked,
        discharge_kw=np.zeros((1, 5)),
        stay_bounds=np.array([[4, 1, 2, 3]]),
    )
    issues = validate_schedule(sched)
    assert any("2 nodes at t=3" in s for s in issues)


def test_validate_schedule_flags_parked_discharge():
    parked = np.zeros((1, 5, 2), dtype=bool)
    parked[0, 0, 0] = True
    discharge = np.zeros((1, 5))
    discharge[0, 0] = 1.0
    sched = FleetSchedule(
        node_ids=(1, 2),
        parked=parked,
        discharge_kw=discharge,
        stay_bounds=np.array([[4, 1, 2, 3]]),
    )
    issues = validate_schedule(sched)
    assert any("discharges while parked" in s for s in issues)


def test_fleet_files_round_trip(tmp_path):
    sched, vehicles = generate_commute_fleet(HOMES, WORKS, 12, seed=21)
    dump_fleet(sched, vehicles, tmp_path / "fleet.json")
    sched2, vehicles2 = load_fleet(tmp_path / "fleet.json")
    assert np.array_equal(sched.parked, sched2.parked)
    assert np.allclose(sched.discharge_kw, sched2.discharge_kw)
    assert np.array_equal(sched.stay_bounds, sched2.stay_bounds)
    assert vehicles == vehicles2
