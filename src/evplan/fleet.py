"""Vehicles, charger catalog, parking schedules and SOC bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ScheduleError


@dataclass(frozen=True)
class ChargerCatalog:
    """Ratings, power factors and unit prices of the two charger types."""

    fast_kva: float = 50.0
    slow_kva: float = 2.4
    fast_pf: float = 0.9
    slow_pf: float = 0.9
    fast_charger_cost: float = 20_000.0
    slow_charger_cost: float = 800.0
    fast_plug_cost: float = 3_000.0  # 15% of the fast single-port price
    slow_plug_cost: float = 120.0  # 15% of the slow single-port price

    def __post_init__(self):
        if not np.inf > self.fast_kva > self.slow_kva > 0:
            raise ParameterError("fast rating must exceed slow rating, both positive and finite")
        for pf in (self.fast_pf, self.slow_pf):
            if not 0 < pf <= 1:
                raise ParameterError("charger power factor outside (0, 1]")
        for c in (
            self.fast_charger_cost,
            self.slow_charger_cost,
            self.fast_plug_cost,
            self.slow_plug_cost,
        ):
            if not 0 <= c < np.inf:
                raise ParameterError("charger costs must be finite and non-negative")

    @property
    def fast_kw(self) -> float:
        return self.fast_kva * self.fast_pf

    @property
    def slow_kw(self) -> float:
        return self.slow_kva * self.slow_pf

    @property
    def fast_kvar(self) -> float:
        return self.fast_kva * np.sin(np.arccos(self.fast_pf))

    @property
    def slow_kvar(self) -> float:
        return self.slow_kva * np.sin(np.arccos(self.slow_pf))


@dataclass(frozen=True)
class Vehicle:
    id: int
    battery_kwh: float = 16.0
    efficiency: float = 0.9
    soc_min: float = 0.10
    soc_max: float = 0.90
    home_node: int | None = None
    work_node: int | None = None
    # Stay boundaries on the linear day: evening arrival, morning departure,
    # midday arrival, midday departure.
    stay_bounds: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if not 0 < self.battery_kwh < np.inf:
            raise ParameterError(f"vehicle {self.id}: battery capacity must be positive and finite")
        if not 0 < self.efficiency <= 1:
            raise ParameterError(f"vehicle {self.id}: efficiency outside (0, 1]")
        if not 0 <= self.soc_min < self.soc_max <= 1:
            raise ParameterError(f"vehicle {self.id}: SOC bounds must satisfy 0 <= lo < hi <= 1")


@dataclass(frozen=True)
class FleetSchedule:
    """Parking tensor, discharge profiles and stay boundaries for a fleet.

    ``parked[v, t, n]`` is True when vehicle v sits at planning node n (index
    into ``node_ids``) during interval t. ``discharge_kw[v, t]`` is the
    driving power draw, positive only while not parked.
    """

    node_ids: tuple[int, ...]
    parked: np.ndarray  # (V, T, N) bool
    discharge_kw: np.ndarray  # (V, T)
    stay_bounds: np.ndarray  # (V, 4) int, columns: arrive_home, leave_home, arrive_work, leave_work
    ts_hours: float = 1.0

    def __post_init__(self):
        if self.parked.ndim != 3 or self.parked.shape[2] != len(self.node_ids):
            raise ParameterError("parking tensor shape does not match node list")
        if self.discharge_kw.shape != self.parked.shape[:2]:
            raise ParameterError("discharge shape does not match parking tensor")
        if self.stay_bounds.shape != (self.parked.shape[0], 4):
            raise ParameterError("stay bounds must be (V, 4)")
        if not 0 < self.ts_hours < np.inf:
            raise ParameterError("sampling time must be positive and finite")

    @property
    def n_vehicles(self) -> int:
        return self.parked.shape[0]

    @property
    def horizon(self) -> int:
        return self.parked.shape[1]

    def node_at(self, v: int, t: int) -> int | None:
        """Node id where vehicle v is parked at t, or None while driving."""
        hits = np.flatnonzero(self.parked[v, t])
        if len(hits) == 0:
            return None
        if len(hits) > 1:
            raise ScheduleError(f"vehicle {v} parked at several nodes at t={t}")
        return self.node_ids[hits[0]]

    def is_parked(self, v: int, t: int) -> bool:
        return bool(self.parked[v, t].any())

    def occupancy(self) -> np.ndarray:
        """Vehicles parked per (node, t)."""
        return self.parked.sum(axis=0).T.astype(int)


def validate_schedule(schedule: FleetSchedule) -> list[str]:
    """Structural checks; returns human-readable violations (empty = valid)."""
    issues: list[str] = []
    per_slot = schedule.parked.sum(axis=2)
    for v, t in zip(*np.nonzero(per_slot > 1)):
        issues.append(f"vehicle {v} parked at {per_slot[v, t]} nodes at t={t}")
    driving_draw = (schedule.discharge_kw > 0) & (per_slot > 0)
    for v, t in zip(*np.nonzero(driving_draw)):
        issues.append(f"vehicle {v} discharges while parked at t={t}")
    if np.any(schedule.discharge_kw < 0):
        issues.append("negative discharge power")
    tau = schedule.stay_bounds
    T = schedule.horizon
    for v in range(schedule.n_vehicles):
        arr_h, dep_h, arr_w, dep_w = tau[v]
        if not (0 <= dep_h < arr_w <= dep_w < arr_h < T) and not np.all(tau[v] == -1):
            issues.append(f"vehicle {v}: inconsistent stay bounds {tuple(tau[v])}")
    return issues


def soc_trajectory(
    vehicle: Vehicle,
    charge_kw: np.ndarray,
    discharge_kw: np.ndarray,
    soc_start: float,
    ts_hours: float = 1.0,
) -> np.ndarray:
    """SOC series of length T+1; charging is derated by the efficiency,
    discharging is not (it is estimated battery-side)."""
    charge_kw = np.asarray(charge_kw, dtype=float)
    discharge_kw = np.asarray(discharge_kw, dtype=float)
    if charge_kw.shape != discharge_kw.shape:
        raise ParameterError("charge and discharge series must have equal length")
    delta = ts_hours / vehicle.battery_kwh * (vehicle.efficiency * charge_kw - discharge_kw)
    return soc_start + np.concatenate([[0.0], np.cumsum(delta)])


# -- synthetic commute case study ---------------------------------------


# Inclusive hour windows of the two commute legs on a 24-hour day. Vehicles
# take the ``Vehicle`` defaults (16 kWh, 90% efficiency, SOC 10-90%).
HORIZON = 24
MORNING_DEPARTURE = (5, 8)
MORNING_ARRIVAL = (8, 11)
EVENING_DEPARTURE = (14, 18)
EVENING_ARRIVAL = (17, 21)


def _sample_leg(rng: np.random.Generator, dep_win, arr_win) -> tuple[int, int]:
    # Inclusive integer hours, rejecting draws until arrival > departure.
    while True:
        dep = int(rng.integers(dep_win[0], dep_win[1] + 1))
        arr = int(rng.integers(arr_win[0], arr_win[1] + 1))
        if arr > dep:
            return dep, arr


def generate_commute_fleet(
    home_nodes: list[int],
    work_nodes: list[int],
    count: int,
    seed: int,
    daily_energy_kwh: float = 4.8,
) -> tuple[FleetSchedule, list[Vehicle]]:
    """Home-work commute: overnight at a cluster-1 node, midday at a
    cluster-2 node, two driving legs consuming ``daily_energy_kwh``, in
    hourly intervals. Deterministic for a fixed seed."""
    if count < 1:
        raise ParameterError("fleet must contain at least one vehicle")
    if not home_nodes or not work_nodes:
        raise ParameterError("both node clusters must be non-empty")
    if not 0 < daily_energy_kwh < np.inf:
        raise ParameterError("daily energy demand must be positive and finite")
    if seed < 0:
        raise ParameterError("seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    node_ids = tuple(sorted(set(home_nodes) | set(work_nodes)))
    col = {n: i for i, n in enumerate(node_ids)}
    parked = np.zeros((count, HORIZON, len(node_ids)), dtype=bool)
    discharge = np.zeros((count, HORIZON))
    bounds = np.zeros((count, 4), dtype=int)
    vehicles: list[Vehicle] = []

    for v in range(count):
        home = home_nodes[int(rng.integers(0, len(home_nodes)))]
        work = work_nodes[int(rng.integers(0, len(work_nodes)))]
        dep_h, arr_w = _sample_leg(rng, MORNING_DEPARTURE, MORNING_ARRIVAL)
        dep_w, arr_h = _sample_leg(rng, EVENING_DEPARTURE, EVENING_ARRIVAL)

        parked[v, :dep_h, col[home]] = True
        parked[v, arr_h:, col[home]] = True
        parked[v, arr_w:dep_w, col[work]] = True
        leg_kwh = daily_energy_kwh / 2.0
        discharge[v, dep_h:arr_w] = leg_kwh / (arr_w - dep_h)
        discharge[v, dep_w:arr_h] = leg_kwh / (arr_h - dep_w)
        bounds[v] = (arr_h, dep_h, arr_w, dep_w)

        vehicles.append(
            Vehicle(
                id=v,
                home_node=home,
                work_node=work,
                stay_bounds=(arr_h, dep_h, arr_w, dep_w),
            )
        )

    schedule = FleetSchedule(
        node_ids=node_ids,
        parked=parked,
        discharge_kw=discharge,
        stay_bounds=bounds,
    )
    return schedule, vehicles
