"""Plan-level solutions: assignments, recomputed counts, SOC bookkeeping.

Counts and objective values reported here are always recomputed from the
raw binaries (max over time of per-node sums), never read back from solver
count columns, so reported figures stay exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bnb import MilpSolveResult, SolverConfig, solve_bnb
from .fleet import soc_trajectory
from .instance import PlanInstance
from .milp import MilpModel

COUNT_KEYS = ("fast_chargers", "slow_chargers", "fast_plugs", "slow_plugs")
BINARY_FAMILIES = ("fast_charge", "slow_charge", "fast_plug", "slow_plug")


@dataclass
class PlanAssignment:
    """Binary decisions plus initial SOCs, in planning shape (V, T)."""

    fast_charge: np.ndarray
    slow_charge: np.ndarray
    fast_plug: np.ndarray
    slow_plug: np.ndarray
    soc_start: np.ndarray

    @property
    def n_vehicles(self):
        return self.fast_charge.shape[0]

    @property
    def horizon(self):
        return self.fast_charge.shape[1]

    def plug_edges(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Connect/disconnect indicators implied by the plug states (the
        fleet starts unplugged before t=0)."""
        plug = self.fast_plug if kind == "fast" else self.slow_plug
        prev = np.concatenate([np.zeros((plug.shape[0], 1), dtype=plug.dtype), plug[:, :-1]], axis=1)
        connect = np.maximum(plug - prev, 0)
        disconnect = np.maximum(prev - plug, 0)
        return connect, disconnect


def assignment_from_columns(model: MilpModel, x: np.ndarray) -> PlanAssignment:
    return PlanAssignment(
        **{fam: np.round(x[model.family(fam)]).astype(int) for fam in BINARY_FAMILIES},
        soc_start=x[model.family("soc_start")].astype(float),
    )


def assignment_to_columns(
    model: MilpModel, instance: PlanInstance, assignment: PlanAssignment
) -> np.ndarray:
    """Full model point: binaries, minimal edges, recomputed counts."""
    x = np.zeros(model.n_cols)
    for fam in BINARY_FAMILIES:
        x[model.family(fam)] = getattr(assignment, fam)
    x[model.family("soc_start")] = assignment.soc_start
    for kind in ("fast", "slow"):
        conn, disc = assignment.plug_edges(kind)
        x[model.family(f"{kind}_connect")] = conn
        x[model.family(f"{kind}_disconnect")] = disc
    counts = recompute_counts(instance, assignment)
    for key in COUNT_KEYS:
        x[model.family(key)] = counts[key]
    return x


def recompute_counts(instance: PlanInstance, assignment: PlanAssignment) -> dict[str, np.ndarray]:
    """Equipment needs per node: max over time of simultaneous use."""
    peak = {
        key: instance.scatter(np.asarray(getattr(assignment, fam), dtype=int)).max(axis=1)
        for key, fam in (("fc", "fast_charge"), ("sc", "slow_charge"),
                         ("fp", "fast_plug"), ("sp", "slow_plug"))
    }
    if instance.chargers == "spc":
        counts = {
            "fast_chargers": peak["fp"],
            "slow_chargers": peak["sp"],
            "fast_plugs": peak["fp"],
            "slow_plugs": peak["sp"],
        }
    else:
        slow_chargers = peak["sp"] if instance.mpc_slow_literal else peak["sc"]
        counts = {
            "fast_chargers": peak["fc"],
            "slow_chargers": slow_chargers,
            "fast_plugs": peak["fp"],
            "slow_plugs": peak["sp"],
        }
    return counts


def plan_objective(instance: PlanInstance, counts: dict[str, np.ndarray]) -> float:
    cat = instance.catalog
    prices = {
        "fast_chargers": cat.fast_charger_cost,
        "slow_chargers": cat.slow_charger_cost,
        "fast_plugs": cat.fast_plug_cost,
        "slow_plugs": cat.slow_plug_cost,
    }
    return float(sum(prices[k] * counts[k].sum() for k in COUNT_KEYS))


def soc_series(instance: PlanInstance, assignment: PlanAssignment) -> np.ndarray:
    """(V, T+1) SOC trajectories recomputed from the raw binaries."""
    cat = instance.catalog
    out = np.zeros((instance.n_vehicles, instance.horizon + 1))
    charge = (
        assignment.fast_charge * cat.fast_kw + assignment.slow_charge * cat.slow_kw
    )
    for v, veh in enumerate(instance.vehicles):
        out[v] = soc_trajectory(
            veh,
            charge[v],
            instance.schedule.discharge_kw[v],
            float(assignment.soc_start[v]),
            instance.schedule.ts_hours,
        )
    return out


@dataclass
class PlanSolution:
    """Solver outcome for one instance/configuration; built by ``plan_solution``."""

    status: str  # optimal | gap-optimal | infeasible | limit | imported
    objective: float | None
    bound: float
    gap: float | None
    assignment: PlanAssignment | None
    counts: dict[str, np.ndarray] | None
    nodes: int = 0
    lp_iterations: int = 0
    runtime_s: float = 0.0
    size: tuple[int, int, int] = (0, 0, 0)  # rows, columns, nonzeros of the model
    presolved_size: tuple[int, int, int] | None = None

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def plan_solution(
    instance: PlanInstance,
    assignment: PlanAssignment | None,
    result: MilpSolveResult,
) -> PlanSolution:
    """The one way to a ``PlanSolution``: counts and objective recomputed
    from the binaries (``None`` without a plan); status, bound, gap and the
    search figures taken from ``result`` as given (its ``x`` is not read)."""
    counts = objective = None
    if assignment is not None:
        counts = recompute_counts(instance, assignment)
        objective = plan_objective(instance, counts)
    return PlanSolution(
        status=result.status,
        objective=objective,
        bound=result.bound,
        gap=result.gap,
        assignment=assignment,
        counts=counts,
        nodes=result.nodes,
        lp_iterations=result.lp_iterations,
        runtime_s=result.runtime_s,
        size=result.size,
        presolved_size=result.presolved_size,
    )


def solution_from_result(
    instance: PlanInstance, model: MilpModel, result: MilpSolveResult
) -> PlanSolution:
    assignment = None if result.x is None else assignment_from_columns(model, result.x)
    return plan_solution(instance, assignment, result)


def solve_plan(
    instance: PlanInstance,
    config: SolverConfig | None = None,
    model: MilpModel | None = None,
) -> PlanSolution:
    from .builder import build_plan_model

    model = model or build_plan_model(instance)
    result = solve_bnb(model, config)
    return solution_from_result(instance, model, result)
