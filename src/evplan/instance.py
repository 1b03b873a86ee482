"""A fully specified planning case: grid, demand, fleet, catalog, scenario.

``prepare_instance`` performs the per-interval linearization: one load flow
per time step on the EV-free net demand, with sensitivity coefficients read
from that load flow's Jacobian and reused for all candidate EV injections.

The linearization depends on the grid and the EV-free demand only, not on
the fleet, the chargers or the scenario, so the grid object keeps the last
one made on it. ``prepare_instance`` on the same ``BusNetwork`` object with
a demand of the same content (node ids, dtype, shape and the bytes of P and
Q) reuses its tuple of sensitivity coefficients, and every instance that
still holds that tuple shares its grid rows per ``GridLimits``. A new
demand replaces the entry, which lives as long as the grid object. A
failure (a diverging load flow, a singular Jacobian, an infeasible base
point) is never kept, so it raises on every call. The shared arrays are
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import NetDemandProfile
from .errors import ParameterError, ScheduleError
from .fleet import ChargerCatalog, FleetSchedule, Vehicle
from .linear_grid import GridLimits, GridRows, linear_grid_constraints
from .loadflow import OperatingPoint, solve_load_flow
from .network import BusNetwork, _read_only
from .sensitivity import SensitivityCoefficients, compute_sensitivities

SCENARIOS = ("A", "B")
CHARGER_CONFIGS = ("spc", "mpc")


@dataclass
class PlanInstance:
    network: BusNetwork
    demand: NetDemandProfile
    schedule: FleetSchedule
    vehicles: list[Vehicle]
    catalog: ChargerCatalog
    scenario: str
    chargers: str
    limits: GridLimits
    linearizations: tuple[SensitivityCoefficients, ...]
    mpc_slow_literal: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"unknown scenario {self.scenario!r}")
        if self.chargers not in CHARGER_CONFIGS:
            raise ParameterError(f"unknown charger configuration {self.chargers!r}")
        if self.schedule.n_vehicles != len(self.vehicles):
            raise ParameterError("schedule and vehicle list disagree on fleet size")
        if self.demand.horizon != self.schedule.horizon:
            raise ParameterError("demand and schedule horizons differ")
        known = set(self.network.node_ids)
        for n in self.schedule.node_ids:
            if n not in known:
                raise ParameterError(f"schedule references node {n} outside the grid")

    @property
    def horizon(self) -> int:
        return self.schedule.horizon

    @property
    def n_vehicles(self) -> int:
        return self.schedule.n_vehicles

    @property
    def node_ids(self) -> list[int]:
        return self.network.node_ids

    @cached_property
    def grid_rows(self) -> tuple[GridRows, ...]:
        """One block of linearized grid rows per interval, shared with the
        instances that hold the grid's current linearization."""
        if len(self.linearizations) != self.horizon:
            raise ParameterError(
                f"missing sensitivity sets: have {len(self.linearizations)}, "
                f"need {self.horizon}"
            )
        memo = self.network._linearization
        shared = memo is not None and memo.sensitivities is self.linearizations
        if shared and self.limits in memo.grid_rows:
            return memo.grid_rows[self.limits]
        rows = tuple(
            linear_grid_constraints(sens, self.network, self.limits)
            for sens in self.linearizations
        )
        if shared:
            memo.grid_rows[self.limits] = rows = tuple(map(_read_only_arrays, rows))
        return rows

    @cached_property
    def parked_col(self) -> np.ndarray:
        """(V, T) index of the parked node into node_ids, -1 while driving.
        A vehicle parked at several nodes at once raises ScheduleError."""
        parked = self.schedule.parked
        several = np.argwhere(parked.sum(axis=2) > 1)
        if len(several):
            v, t = several[0].tolist()
            raise ScheduleError(f"vehicle {v} parked at several nodes at t={t}")
        order = {n: k for k, n in enumerate(self.node_ids)}
        # Each schedule node's index into node_ids, and last a -1 for the
        # hours parked nowhere, whose 1-based schedule node is 0 below.
        cols = np.array([order[n] for n in self.schedule.node_ids] + [-1], dtype=np.int32)
        return cols[parked.astype(np.int64) @ np.arange(1, parked.shape[2] + 1) - 1]

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """(n_nodes, T) sums of a (V, T) per-vehicle array at the node where
        each vehicle is parked; driving hours drop out. Each cell adds its
        vehicles in increasing index order."""
        v, t = np.nonzero(self.parked_col >= 0)
        out = np.zeros((len(self.node_ids), self.horizon), dtype=values.dtype)
        np.add.at(out, (self.parked_col[v, t], t), values[v, t])
        return out

    def ev_injections(self, fast_charge: np.ndarray, slow_charge: np.ndarray):
        """Nodal (P, Q) pulled by the chargers, shape (n_nodes, T), from a
        complete charge assignment."""
        cat = self.catalog
        return (
            self.scatter(cat.fast_kw * fast_charge + cat.slow_kw * slow_charge),
            self.scatter(cat.fast_kvar * fast_charge + cat.slow_kvar * slow_charge),
        )


@dataclass
class _Linearization:
    """A grid's EV-free linearization for one demand content."""

    key: tuple
    sensitivities: tuple[SensitivityCoefficients, ...]
    grid_rows: dict[GridLimits, tuple[GridRows, ...]]


def _read_only_arrays(obj):
    """``obj`` with its array fields, and its operating point's, read-only."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            _read_only(value)
        elif isinstance(value, OperatingPoint):
            _read_only_arrays(value)
    return obj


def _linearize(network: BusNetwork, demand: NetDemandProfile) -> tuple[SensitivityCoefficients, ...]:
    """The grid's sensitivity coefficients for ``demand``, made when the
    grid holds none for a demand of this content."""
    p_kw, q_kvar = demand.p_kw, demand.q_kvar
    key = (demand.node_ids, p_kw.dtype.str, q_kvar.dtype.str, p_kw.shape,
           p_kw.tobytes(), q_kvar.tobytes())
    memo = network._linearization
    if memo is None or memo.key != key:
        sensitivities = []
        for t in range(demand.horizon):
            p, q = demand.demand_at(network, t)
            point = solve_load_flow(network, p, q)
            sensitivities.append(_read_only_arrays(compute_sensitivities(network, point)))
        memo = _Linearization(key, tuple(sensitivities), {})
        object.__setattr__(network, "_linearization", memo)
    return memo.sensitivities


def prepare_instance(
    network: BusNetwork,
    demand: NetDemandProfile,
    schedule: FleetSchedule,
    vehicles: list[Vehicle],
    catalog: ChargerCatalog | None = None,
    scenario: str = "A",
    chargers: str = "spc",
    limits: GridLimits | None = None,
    mpc_slow_literal: bool = False,
) -> PlanInstance:
    """Solve the EV-free load flow and linearize once per time step, or
    reuse the grid's linearization for a demand of the same content."""
    return PlanInstance(
        network=network,
        demand=demand,
        schedule=schedule,
        vehicles=vehicles,
        catalog=catalog or ChargerCatalog(),
        scenario=scenario,
        chargers=chargers,
        limits=limits or GridLimits(),
        linearizations=_linearize(network, demand),
        mpc_slow_literal=mpc_slow_literal,
    )
