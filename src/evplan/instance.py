"""A fully specified planning case: grid, demand, fleet, catalog, scenario.

``prepare_instance`` performs the per-interval linearization: one load flow
per time step on the EV-free net demand, with sensitivity coefficients read
from that load flow's Jacobian and reused for all candidate EV injections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import NetDemandProfile
from .errors import ParameterError, ScheduleError
from .fleet import ChargerCatalog, FleetSchedule, Vehicle
from .linear_grid import GridLimits, GridRows, linear_grid_constraints
from .loadflow import solve_load_flow
from .network import BusNetwork
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
    linearizations: list[SensitivityCoefficients]
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
    def grid_rows(self) -> list[GridRows]:
        """One block of linearized grid rows per interval."""
        if len(self.linearizations) != self.horizon:
            raise ParameterError(
                f"missing sensitivity sets: have {len(self.linearizations)}, "
                f"need {self.horizon}"
            )
        return [
            linear_grid_constraints(sens, self.network, self.limits)
            for sens in self.linearizations
        ]

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
    """Solve the EV-free load flow and linearize once per time step."""
    linearizations = []
    for t in range(demand.horizon):
        p, q = demand.demand_at(network, t)
        point = solve_load_flow(network, p, q)
        linearizations.append(compute_sensitivities(network, point))
    return PlanInstance(
        network=network,
        demand=demand,
        schedule=schedule,
        vehicles=vehicles,
        catalog=catalog or ChargerCatalog(),
        scenario=scenario,
        chargers=chargers,
        limits=limits or GridLimits(),
        linearizations=linearizations,
        mpc_slow_literal=mpc_slow_literal,
    )
