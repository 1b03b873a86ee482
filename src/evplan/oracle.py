"""Exhaustive reference solver for tiny planning instances.

Independent of the matrix/simplex path: enumerates the free plug/charge
binaries interval by interval straight from the schedule data, derives the
connect/disconnect events from the plug patterns, checks driver rules,
grid rows and battery feasibility on the fly, and optimizes the free
initial SOC per leaf by 1-D interval intersection. Branches are pruned by
their running equipment-cost lower bound (per-node maxima never decrease).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleSizeError
from .instance import PlanInstance
from .solution import PlanAssignment

MAX_FREE_BINARIES = 30
SOC_TOL = 1e-9
COST_TOL = 1e-9


@dataclass
class OracleResult:
    status: str  # optimal | infeasible
    objective: float | None = None
    assignment: PlanAssignment | None = None
    leaves: int = 0


# Per-slot choices (plug_fast, plug_slow, charge_fast, charge_slow), idle
# and slow options first so cheap incumbents arrive early.
_CHOICES = (
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (0, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 0),
)


def brute_force_oracle(
    instance: PlanInstance, max_free_binaries: int = MAX_FREE_BINARIES
) -> OracleResult:
    """Exact optimum by enumeration; refuses oversized instances."""
    parked = instance.schedule.parked.any(axis=2)
    free = 4 * int(parked.sum())
    if free > max_free_binaries:
        raise OracleSizeError(
            f"{free} free binaries after fixing driving intervals "
            f"(limit {max_free_binaries})"
        )
    search = _Search(instance)
    search.run()
    if search.best_cost is None:
        return OracleResult(status="infeasible", leaves=search.leaves)
    return OracleResult(
        status="optimal",
        objective=search.best_cost,
        assignment=search.best_assignment,
        leaves=search.leaves,
    )


class _Search:
    def __init__(self, inst: PlanInstance):
        self.inst = inst
        self.V, self.T = inst.n_vehicles, inst.horizon
        self.parked = inst.schedule.parked.any(axis=2)
        self.parked_col = inst.parked_col
        self.n_nodes = len(inst.node_ids)
        cat = inst.catalog
        self.kw = (cat.fast_kw, cat.slow_kw)
        self.kvar = (cat.fast_kvar, cat.slow_kvar)
        self.prices = (
            cat.fast_charger_cost,
            cat.slow_charger_cost,
            cat.fast_plug_cost,
            cat.slow_plug_cost,
        )

        # Battery bookkeeping: charge is the decision, discharge is data.
        ts = inst.schedule.ts_hours
        self.kf = np.array(
            [ts * v.efficiency * cat.fast_kw / v.battery_kwh for v in inst.vehicles]
        )
        self.ks = np.array(
            [ts * v.efficiency * cat.slow_kw / v.battery_kwh for v in inst.vehicles]
        )
        self.d_cum = np.zeros((self.V, self.T + 1))
        for v, veh in enumerate(inst.vehicles):
            self.d_cum[v, 1:] = np.cumsum(inst.schedule.discharge_kw[v]) * ts / veh.battery_kwh
        self.soc_lo = np.array([v.soc_min for v in inst.vehicles])
        self.soc_hi = np.array([v.soc_max for v in inst.vehicles])
        self.suffix_max = np.zeros((self.V, self.T + 1))
        for v in range(self.V):
            step = np.where(self.parked[v], max(self.kf[v], self.ks[v]), 0.0)
            self.suffix_max[v, :-1] = np.cumsum(step[::-1])[::-1]

        self._scenario_sets()

        # Mutable search state.
        self.y = np.zeros((self.V, self.T, 2), dtype=np.int8)
        self.x = np.zeros((self.V, self.T, 2), dtype=np.int8)
        self.c_charge = np.zeros(self.V)
        self.z_lo = self.soc_lo.copy()
        self.z_hi = self.soc_hi.copy()
        self.budget = np.zeros((self.V, 2), dtype=int)
        self.maxima = np.zeros((self.n_nodes, 4))  # chgF, chgS, plugF, plugS peaks
        self.sums_stack: list[np.ndarray] = []
        self._stash: list[tuple] = []
        self.best_cost: float | None = None
        self.best_assignment: PlanAssignment | None = None
        self.leaves = 0

    def _scenario_sets(self):
        inst = self.inst
        self.allowed_c: list[set[int]] = []
        self.allowed_d: list[set[int] | None] = []  # None = unrestricted
        self.window: list[tuple[int, int]] = []
        for v in range(self.V):
            arr_home, dep_home, arr_work, dep_work = (
                int(x) for x in inst.schedule.stay_bounds[v]
            )
            allowed = {arr_home}
            if inst.scenario == "A":
                allowed.add(arr_work)
                self.allowed_d.append({dep_home, dep_work})
            else:
                allowed.update(range(arr_work, dep_work))
                self.allowed_d.append(None)
            if self.parked[v, 0]:
                allowed.add(0)
            self.allowed_c.append(allowed)
            self.window.append((arr_work, dep_work))

    # -- cost ----------------------------------------------------------------

    def _cost_bound(self) -> float:
        fF, fS, pF, pS = self.prices
        if self.inst.chargers == "spc":
            return float(
                self.maxima[:, 2].sum() * (fF + pF) + self.maxima[:, 3].sum() * (fS + pS)
            )
        if self.inst.mpc_slow_literal:
            slow_chargers = self.maxima[:, 3].sum()
        else:
            slow_chargers = self.maxima[:, 1].sum()
        return float(
            self.maxima[:, 0].sum() * fF
            + slow_chargers * fS
            + self.maxima[:, 2].sum() * pF
            + self.maxima[:, 3].sum() * pS
        )

    # -- recursion -------------------------------------------------------------

    def run(self):
        self._step_time(0)

    def _step_time(self, t: int):
        if self.best_cost is not None and self._cost_bound() >= self.best_cost - COST_TOL:
            return
        if t == self.T:
            self._leaf()
            return
        self.sums_stack.append(np.zeros((self.n_nodes, 4)))
        self._step_vehicle(t, 0)
        self.sums_stack.pop()

    def _step_vehicle(self, t: int, v: int):
        if v == self.V:
            sums = self.sums_stack[-1]
            if self._grid_ok(t, sums):
                saved = self.maxima.copy()
                np.maximum(self.maxima, sums, out=self.maxima)
                self._step_time(t + 1)
                self.maxima = saved
            return

        if not self.parked[v, t]:
            if self._apply(v, t, 0, 0, 0, 0):
                self._step_vehicle(t, v + 1)
                self._undo(v, t)
            return

        sums = self.sums_stack[-1]
        col = self.parked_col[v, t]
        for pf, ps, cf, cs in _CHOICES:
            if not self._apply(v, t, pf, ps, cf, cs):
                continue
            sums[col, 0] += cf
            sums[col, 1] += cs
            sums[col, 2] += pf
            sums[col, 3] += ps
            self._step_vehicle(t, v + 1)
            sums[col, 0] -= cf
            sums[col, 1] -= cs
            sums[col, 2] -= pf
            sums[col, 3] -= ps
            self._undo(v, t)

    # -- per-slot transition -----------------------------------------------------

    def _apply(self, v, t, pf, ps, cf, cs) -> bool:
        prev_f = self.y[v, t - 1, 0] if t > 0 else 0
        prev_s = self.y[v, t - 1, 1] if t > 0 else 0
        rising = (pf and not prev_f) or (ps and not prev_s)
        if rising and t not in self.allowed_c[v]:
            return False
        allowed_d = self.allowed_d[v]
        lo_w, hi_w = self.window[v]
        used = [0, 0]
        for k, (now, before) in enumerate(((pf, prev_f), (ps, prev_s))):
            if before and not now:
                if allowed_d is not None and t not in allowed_d:
                    return False
                if allowed_d is None and lo_w <= t <= hi_w:
                    if self.budget[v, k] >= 1:
                        return False
                    used[k] = 1

        gain = cf * self.kf[v] + cs * self.ks[v]
        new_c = self.c_charge[v] + gain
        cum = new_c - self.d_cum[v, t + 1]
        z_lo = max(self.z_lo[v], self.soc_lo[v] - cum)
        z_hi = min(self.z_hi[v], self.soc_hi[v] - cum)
        if z_lo > z_hi + SOC_TOL:
            return False
        if new_c + self.suffix_max[v, t + 1] < self.d_cum[v, self.T] - SOC_TOL:
            return False

        self._stash.append((v, t, self.c_charge[v], self.z_lo[v], self.z_hi[v], used))
        self.budget[v, 0] += used[0]
        self.budget[v, 1] += used[1]
        self.c_charge[v] = new_c
        self.z_lo[v], self.z_hi[v] = z_lo, z_hi
        self.y[v, t, 0], self.y[v, t, 1] = pf, ps
        self.x[v, t, 0], self.x[v, t, 1] = cf, cs
        return True

    def _undo(self, v, t):
        sv, st, c, lo, hi, used = self._stash.pop()
        assert (sv, st) == (v, t)
        self.budget[v, 0] -= used[0]
        self.budget[v, 1] -= used[1]
        self.c_charge[v] = c
        self.z_lo[v], self.z_hi[v] = lo, hi
        self.y[v, t] = 0
        self.x[v, t] = 0

    def _grid_ok(self, t, sums) -> bool:
        dp = sums[:, 0] * self.kw[0] + sums[:, 1] * self.kw[1]
        dq = sums[:, 0] * self.kvar[0] + sums[:, 1] * self.kvar[1]
        rows = self.inst.grid_rows[t]
        return bool(np.all(rows.p_coef @ dp + rows.q_coef @ dq <= rows.rhs + 1e-9))

    def _leaf(self):
        self.leaves += 1
        if np.any(self.c_charge < self.d_cum[:, self.T] - SOC_TOL):
            return
        cost = self._cost_bound()
        if self.best_cost is not None and cost >= self.best_cost - COST_TOL:
            return
        self.best_cost = cost
        self.best_assignment = PlanAssignment(
            fast_charge=self.x[:, :, 0].astype(int).copy(),
            slow_charge=self.x[:, :, 1].astype(int).copy(),
            fast_plug=self.y[:, :, 0].astype(int).copy(),
            slow_plug=self.y[:, :, 1].astype(int).copy(),
            soc_start=np.minimum(np.maximum(self.z_lo, self.soc_lo), self.z_hi).copy(),
        )
