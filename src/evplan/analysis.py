"""Post-processing of plan solutions into tables, profiles and sweeps.

All equipment figures are recomputed from the raw binaries of each
solution; solver count columns are never read back.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bnb import SolverConfig
from .errors import ParameterError
from .instance import PlanInstance
from .solution import PlanSolution, solve_plan

QUANTILES = (0.0, 0.33, 0.5, 0.67, 1.0)


@dataclass
class StudyCase:
    label: str  # e.g. "spc-A"
    instance: PlanInstance
    solution: PlanSolution


@dataclass
class StudyReport:
    charger_rows: list[dict] = field(default_factory=list)
    costs: list[dict] = field(default_factory=list)
    savings: list[dict] = field(default_factory=list)
    ordering: list[dict] = field(default_factory=list)
    injection_rows: list[dict] = field(default_factory=list)
    quantile_rows: list[dict] = field(default_factory=list)

    def as_dict(self):
        return {
            "charger_table": self.charger_rows,
            "costs": self.costs,
            "savings": self.savings,
            "ordering": self.ordering,
            "injections": self.injection_rows,
            "injection_quantiles": self.quantile_rows,
        }

    def write_json(self, path):
        Path(path).write_text(dumps_strict(self.as_dict()))


def dumps_strict(doc) -> str:
    """Indented JSON text with every non-finite float written as null, so
    that strict parsers accept it (an unproven bound is -inf)."""

    def clean(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        return value

    return json.dumps(clean(doc), indent=1, allow_nan=False) + "\n"


def charger_table(cases: list[StudyCase]) -> list[dict]:
    """Per-node chargers/plugs for every solved case, with totals and
    cluster subtotals."""
    rows: list[dict] = []
    if not cases:
        return rows
    for case in cases:
        if not case.solution.feasible:
            continue
        inst = case.instance
        counts = case.solution.counts
        chargers = counts["fast_chargers"] + counts["slow_chargers"]
        plugs = counts["fast_plugs"] + counts["slow_plugs"]
        node_rows = []
        for k, node in enumerate(inst.node_ids):
            bus = inst.network.buses[inst.network.bus_index(node)]
            if chargers[k] == 0 and plugs[k] == 0 and bus.cluster is None:
                continue
            node_rows.append(
                {
                    "case": case.label,
                    "node": node,
                    "cluster": bus.cluster,
                    "chargers": int(chargers[k]),
                    "plugs": int(plugs[k]),
                    "fast_chargers": int(counts["fast_chargers"][k]),
                    "slow_chargers": int(counts["slow_chargers"][k]),
                }
            )
        rows.extend(node_rows)
        by_cluster: dict = {}
        for r in node_rows:
            key = r["cluster"]
            agg = by_cluster.setdefault(key, {"chargers": 0, "plugs": 0})
            agg["chargers"] += r["chargers"]
            agg["plugs"] += r["plugs"]
        for cl, agg in sorted(by_cluster.items(), key=lambda kv: str(kv[0])):
            rows.append(
                {
                    "case": case.label,
                    "node": f"cluster{cl}",
                    "cluster": cl,
                    "chargers": agg["chargers"],
                    "plugs": agg["plugs"],
                    "fast_chargers": None,
                    "slow_chargers": None,
                }
            )
        rows.append(
            {
                "case": case.label,
                "node": "total",
                "cluster": None,
                "chargers": int(chargers.sum()),
                "plugs": int(plugs.sum()),
                "fast_chargers": int(counts["fast_chargers"].sum()),
                "slow_chargers": int(counts["slow_chargers"].sum()),
            }
        )
    return rows


def cost_comparison(cases: list[StudyCase], gap: float = 0.10):
    """Costs, pairwise savings and the expected cost orderings
    (multi-port <= single-port per scenario, flexible <= stiff per charger
    type), each checked with the solver-gap slack. An ordering with a case
    that has no plan is undecided (``holds_with_gap`` is None)."""
    costs = []
    for case in cases:
        sol = case.solution
        costs.append(
            {
                "case": case.label,
                "cost": sol.objective,
                "bound": sol.bound,
                "gap": sol.gap,
                "status": sol.status,
            }
        )
    savings = []
    for a in costs:
        for b in costs:
            if a["case"] >= b["case"] or a["cost"] is None or b["cost"] is None:
                continue
            src, dst = (a, b) if a["cost"] >= b["cost"] else (b, a)
            hi, lo = src["cost"], dst["cost"]
            savings.append(
                {
                    "from": src["case"],
                    "to": dst["case"],
                    "saving_pct": 0.0 if hi == 0 else 100.0 * (hi - lo) / hi,
                }
            )
    by_label = {c["case"]: c["cost"] for c in costs}
    ordering = []
    for big, small in (
        ("spc-A", "mpc-A"),
        ("spc-B", "mpc-B"),
        ("spc-A", "spc-B"),
        ("mpc-A", "mpc-B"),
    ):
        if big in by_label and small in by_label:
            lhs, rhs = by_label[big], by_label[small]
            ordering.append(
                {
                    "expected": f"{big} >= {small}",
                    "lhs": lhs,
                    "rhs": rhs,
                    "holds_with_gap": (
                        None if lhs is None or rhs is None else bool(lhs >= rhs * (1.0 - gap))
                    ),
                }
            )
    return costs, savings, ordering


def injection_profiles(case: StudyCase):
    """Nodal active power normalized by the node's usable rating, plus
    cross-node quantile bands per interval."""
    inst = case.instance
    sol = case.solution
    if not sol.feasible:
        raise ParameterError(f"case {case.label} has no feasible solution")
    dp, _dq = inst.ev_injections(sol.assignment.fast_charge, sol.assignment.slow_charge)
    rows = []
    series = []
    for k, node in enumerate(inst.node_ids):
        bus = inst.network.buses[inst.network.bus_index(node)]
        if bus.rating_kva is None:
            continue
        denom = bus.rating_kva * bus.power_factor
        values = (inst.demand.active(node) + dp[k]) / denom
        series.append(values)
        for t in range(inst.horizon):
            rows.append(
                {"case": case.label, "node": node, "t": t, "value": float(values[t])}
            )
    bands = []
    arr = np.array(series)
    for t in range(inst.horizon):
        entry = {"case": case.label, "t": t}
        for q in QUANTILES:
            entry[f"q{q:.2f}"] = float(np.quantile(arr[:, t], q))
        bands.append(entry)
    return rows, bands


def demand_sweep(
    base_instance: PlanInstance,
    multipliers: list[float],
    config: SolverConfig | None = None,
) -> list[dict]:
    """Re-solve with the driving demand scaled by each multiplier and
    report slow-charger totals; non-monotone steps are flagged (they can
    appear whenever solves stop at a positive MIP gap)."""
    if not np.all(np.isfinite(multipliers)):
        raise ParameterError("demand multipliers must be finite")
    rows: list[dict] = []
    previous = None
    for mult in multipliers:
        schedule = replace(
            base_instance.schedule,
            discharge_kw=base_instance.schedule.discharge_kw * mult,
        )
        inst = replace(base_instance, schedule=schedule)
        sol = solve_plan(inst, config)
        total = (
            None
            if not sol.feasible
            else int(sol.counts["slow_chargers"].sum())
        )
        row = {
            "multiplier": mult,
            "slow_chargers": total,
            "cost": sol.objective,
            "status": sol.status,
            "gap": sol.gap,
            "non_monotone": bool(
                previous is not None and total is not None and total < previous
            ),
        }
        rows.append(row)
        if total is not None:
            previous = total
    return rows


def write_csv(path, rows: list[dict]):
    """``rows`` under a header of the first row's keys, in their order."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in columns})


def build_report(cases: list[StudyCase], gap: float = 0.10) -> StudyReport:
    report = StudyReport()
    report.charger_rows = charger_table(cases)
    report.costs, report.savings, report.ordering = cost_comparison(cases, gap)
    for case in cases:
        if case.solution.feasible:
            rows, bands = injection_profiles(case)
            report.injection_rows.extend(rows)
            report.quantile_rows.extend(bands)
    return report
