"""Fleet and schedule file formats.

``fleet.json`` holds vehicle parameters and points at a sibling schedule
CSV with one row per (vehicle, interval): ``vehicle,t,node,discharge_kw``
where node is -1 while driving.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ParameterError, malformed_input
from .fleet import FleetSchedule, Vehicle

SCHEDULE_NAME = "schedule.csv"  # written next to fleet.json, which names it


def dump_fleet(schedule: FleetSchedule, vehicles: list[Vehicle], fleet_path: str | Path) -> None:
    fleet_path = Path(fleet_path)
    doc = {
        "ts_hours": schedule.ts_hours,
        "horizon": schedule.horizon,
        "node_ids": list(schedule.node_ids),
        "schedule": SCHEDULE_NAME,
        "vehicles": [
            {
                "id": v.id,
                "battery_kwh": v.battery_kwh,
                "efficiency": v.efficiency,
                "soc_min": v.soc_min,
                "soc_max": v.soc_max,
                "home_node": v.home_node,
                "work_node": v.work_node,
                "stay_bounds": list(v.stay_bounds) if v.stay_bounds else None,
            }
            for v in vehicles
        ],
    }
    with open(fleet_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(fleet_path.parent / SCHEDULE_NAME, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vehicle", "t", "node", "discharge_kw"])
        for v in range(schedule.n_vehicles):
            for t in range(schedule.horizon):
                node = schedule.node_at(v, t)
                writer.writerow(
                    [v, t, -1 if node is None else node, f"{schedule.discharge_kw[v, t]:.6f}"]
                )


def load_fleet(fleet_path: str | Path) -> tuple[FleetSchedule, list[Vehicle]]:
    fleet_path = Path(fleet_path)
    with malformed_input(fleet_path):
        with open(fleet_path) as fh:
            doc = json.load(fh)
        vehicles = [
            Vehicle(
                id=int(v["id"]),
                battery_kwh=float(v["battery_kwh"]),
                efficiency=float(v["efficiency"]),
                soc_min=float(v["soc_min"]),
                soc_max=float(v["soc_max"]),
                home_node=v.get("home_node"),
                work_node=v.get("work_node"),
                stay_bounds=tuple(v["stay_bounds"]) if v.get("stay_bounds") else None,
            )
            for v in doc["vehicles"]
        ]
        node_ids = tuple(int(n) for n in doc["node_ids"])
        V = len(vehicles)
        T = int(doc["horizon"])
        ts_hours = float(doc["ts_hours"])
        sched_path = fleet_path.parent / doc["schedule"]
        bounds = np.full((V, 4), -1, dtype=int)
        for i, v in enumerate(vehicles):
            if v.stay_bounds is not None:
                bounds[i] = v.stay_bounds
    col = {n: i for i, n in enumerate(node_ids)}
    parked = np.zeros((V, T, len(node_ids)), dtype=bool)
    discharge = np.zeros((V, T))
    seen = np.zeros((V, T), dtype=bool)

    with malformed_input(sched_path), open(sched_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["vehicle", "t", "node", "discharge_kw"]:
            raise ParameterError(f"unexpected header {header}")
        for rec in reader:
            if not rec:
                continue
            v, t, node = int(rec[0]), int(rec[1]), int(rec[2])
            if not (0 <= v < V and 0 <= t < T):
                raise ParameterError(f"indices ({v},{t}) out of range")
            if node != -1:
                if node not in col:
                    raise ParameterError(f"unknown node {node}")
                parked[v, t, col[node]] = True
            discharge[v, t] = float(rec[3])
            seen[v, t] = True
        if not seen.all():
            raise ParameterError("missing (vehicle, t) rows")
        if not np.isfinite(discharge).all():
            raise ParameterError("discharge power must be finite")

    with malformed_input(fleet_path):
        schedule = FleetSchedule(
            node_ids=node_ids,
            parked=parked,
            discharge_kw=discharge,
            stay_bounds=bounds,
            ts_hours=ts_hours,
        )
    return schedule, vehicles
