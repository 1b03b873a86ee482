"""Independent feasibility verification of plan assignments.

Every rule is rechecked from the raw instance data (schedule tensors,
battery parameters, linearized grid rows), never from the solver matrix.
The report also re-solves the exact nonlinear load flow at every interval
(or at the k with the heaviest EV load) to check the plan against the
exact grid limits and to quantify the linearization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LoadFlowDivergenceError
from .instance import PlanInstance
from .loadflow import OperatingPoint, solve_load_flow
from .network import BusNetwork
from .sensitivity import SensitivityCoefficients
from .solution import PlanAssignment, recompute_counts, soc_series

SOC_TOL = 1e-9
GRID_TOL = 1e-6
COUNT_TOL = 1e-6


@dataclass
class Violation:
    rule: str
    where: tuple
    detail: str

    def as_dict(self):
        return {"rule": self.rule, "where": list(self.where), "detail": self.detail}


@dataclass
class SpotCheck:
    t: int
    converged: bool
    max_voltage_error_pu: float = float("nan")
    max_current_error_a: float = float("nan")
    slack_error_kva: float = float("nan")
    exact_within_limits: bool = False

    def as_dict(self):
        return {
            "t": self.t,
            "converged": self.converged,
            "max_voltage_error_pu": self.max_voltage_error_pu,
            "max_current_error_a": self.max_current_error_a,
            "slack_error_kva": self.slack_error_kva,
            "exact_within_limits": self.exact_within_limits,
        }


@dataclass
class FeasibilityReport:
    violations: list[Violation] = field(default_factory=list)
    spot_checks: list[SpotCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self):
        return {
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "linearization_spot_checks": [s.as_dict() for s in self.spot_checks],
        }


def verify_solution(
    instance: PlanInstance,
    assignment: PlanAssignment,
    counts: dict[str, np.ndarray] | None = None,
    spot_checks: int | None = None,
) -> FeasibilityReport:
    """Recheck every rule; ``spot_checks`` limits the exact load flows to
    that many intervals, heaviest EV load first (None: every interval)."""
    rep = FeasibilityReport()
    dp, dq = instance.ev_injections(assignment.fast_charge, assignment.slow_charge)
    _check_parking_logic(instance, assignment, rep)
    _check_soc(instance, assignment, rep)
    _check_grid(instance, dp, dq, rep)
    _check_driver_rules(instance, assignment, rep)
    if counts is not None:
        _check_counts(instance, assignment, counts, rep)
    k = instance.horizon if spot_checks is None else spot_checks
    _spot_check_exact_flow(instance, dp, dq, rep, k)
    return rep


def _check_parking_logic(inst, asg, rep):
    parked = inst.schedule.parked.any(axis=2)
    for v in range(inst.n_vehicles):
        for t in range(inst.horizon):
            fp, sp = asg.fast_plug[v, t], asg.slow_plug[v, t]
            fc, sc = asg.fast_charge[v, t], asg.slow_charge[v, t]
            for val, name in ((fp, "fast_plug"), (sp, "slow_plug"), (fc, "fast_charge"), (sc, "slow_charge")):
                if val not in (0, 1):
                    rep.violations.append(Violation("binary", (v, t), f"{name}={val}"))
            if fp + sp > int(parked[v, t]):
                rep.violations.append(
                    Violation("plug_only_if_parked", (v, t), f"plugs={fp + sp}, parked={int(parked[v, t])}")
                )
            if fc > fp:
                rep.violations.append(Violation("charge_only_if_plugged", (v, t), "fast"))
            if sc > sp:
                rep.violations.append(Violation("charge_only_if_plugged", (v, t), "slow"))


def _check_soc(inst, asg, rep):
    soc = soc_series(inst, asg)
    for v, veh in enumerate(inst.vehicles):
        if not veh.soc_min - SOC_TOL <= asg.soc_start[v] <= veh.soc_max + SOC_TOL:
            rep.violations.append(
                Violation("soc_start_bounds", (v,), f"soc0={asg.soc_start[v]:.6f}")
            )
        lo, hi = soc[v].min(), soc[v].max()
        if lo < veh.soc_min - SOC_TOL or hi > veh.soc_max + SOC_TOL:
            rep.violations.append(
                Violation("soc_bounds", (v,), f"range [{lo:.6f}, {hi:.6f}]")
            )
        if soc[v, -1] < soc[v, 0] - SOC_TOL:
            rep.violations.append(
                Violation("soc_final_below_start", (v,), f"{soc[v, -1]:.6f} < {soc[v, 0]:.6f}")
            )


def _check_grid(inst, dp, dq, rep):
    for t, rows in enumerate(inst.grid_rows):
        margin = rows.rhs - rows.p_coef @ dp[:, t] - rows.q_coef @ dq[:, t]
        for r in np.flatnonzero(margin < -GRID_TOL * np.maximum(1.0, np.abs(rows.rhs))):
            rep.violations.append(
                Violation(f"grid_{rows.kind[r]}", (t, int(rows.subject[r])), f"margin {margin[r]:.3e}")
            )


def _check_driver_rules(inst, asg, rep):
    parked0 = inst.schedule.parked.any(axis=2)[:, 0]
    for v in range(inst.n_vehicles):
        arr_home, dep_home, arr_work, dep_work = (int(x) for x in inst.schedule.stay_bounds[v])
        allowed_c = {arr_home}
        if inst.scenario == "A":
            allowed_c.add(arr_work)
            allowed_d = {dep_home, dep_work}
        else:
            allowed_c.update(range(arr_work, dep_work))
            allowed_d = None
        if parked0[v]:
            allowed_c.add(0)
        for kind in ("fast", "slow"):
            conn, disc = asg.plug_edges(kind)
            for t in np.flatnonzero(conn[v]):
                if int(t) not in allowed_c:
                    rep.violations.append(
                        Violation("connection_outside_arrival", (v, int(t)), kind)
                    )
            if allowed_d is not None:
                for t in np.flatnonzero(disc[v]):
                    if int(t) not in allowed_d:
                        rep.violations.append(
                            Violation("disconnection_outside_departure", (v, int(t)), kind)
                        )
            else:
                window = disc[v, arr_work : dep_work + 1]
                if int(window.sum()) > 1:
                    rep.violations.append(
                        Violation("midday_disconnection_budget", (v,), f"{kind}: {int(window.sum())}")
                    )


def _check_counts(inst, asg, counts, rep):
    true_counts = recompute_counts(inst, asg)
    for key, values in counts.items():
        for n_idx, val in enumerate(np.asarray(values)):
            if abs(val - round(val)) > COUNT_TOL:
                rep.violations.append(
                    Violation("count_not_integral", (key, inst.node_ids[n_idx]), f"{val}")
                )
            if val < true_counts[key][n_idx] - COUNT_TOL:
                rep.violations.append(
                    Violation(
                        "count_below_usage",
                        (key, inst.node_ids[n_idx]),
                        f"{val} < {true_counts[key][n_idx]}",
                    )
                )


def linearization_error(
    network: BusNetwork, sens: SensitivityCoefficients, dp: np.ndarray, dq: np.ndarray
) -> tuple[OperatingPoint | None, dict[str, float]]:
    """Exact load flow at ``sens.point`` moved by the nodal demand
    increments (dP, dQ), and the errors of the linear prediction there.

    Returns the exact state and the largest voltage, line-current and slack
    errors (keyed like ``SpotCheck``), or ``(None, {})`` when the exact load
    flow diverges.
    """
    point = sens.point
    p = point.p_kw.copy()
    q = point.q_kvar.copy()
    p[network.node_bus] += dp
    q[network.node_bus] += dq
    try:
        exact = solve_load_flow(network, p, q)
    except LoadFlowDivergenceError:
        return None, {}
    v_lin = point.voltage_pu + sens.dv_dp @ dp + sens.dv_dq @ dq
    i_lin = point.current_a + sens.di_dp @ dp + sens.di_dq @ dq
    s_lin = point.slack_kva + sens.ds0_dp @ dp + sens.ds0_dq @ dq
    return exact, {
        "max_voltage_error_pu": float(np.max(np.abs(v_lin - exact.voltage_pu))),
        "max_current_error_a": float(np.max(np.abs(i_lin - exact.current_a), initial=0.0)),
        "slack_error_kva": float(abs(s_lin - exact.slack_kva)),
    }


def _spot_check_exact_flow(inst, dp, dq, rep, k):
    if k <= 0:
        return
    order = np.argsort(-dp.sum(axis=0), kind="stable")[:k]  # heaviest EV load first
    net = inst.network
    limits = inst.limits
    for t in sorted(int(t) for t in order):
        exact, errors = linearization_error(net, inst.linearizations[t], dp[:, t], dq[:, t])
        if exact is None:
            rep.spot_checks.append(SpotCheck(t=t, converged=False))
            continue
        vmags = exact.voltage_pu[net.node_bus]
        within = (
            vmags.min() >= limits.v_min_pu - 1e-6
            and vmags.max() <= limits.v_max_pu + 1e-6
            and np.all(exact.current_a <= net.ampacity_a + 1e-6)
            and exact.slack_kva <= net.transformer_kva + 1e-6
        )
        rep.spot_checks.append(
            SpotCheck(t=t, converged=True, exact_within_limits=bool(within), **errors)
        )
