"""Seeded inputs for the benchmark workloads.

Everything here is made before the timed pipeline calls start: the bundled
grid and demand, commute fleets, the raw data of tiny instances, and the
benchmark's own reference charging plan. The program only ever receives
what these functions return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evplan import data_path
from evplan.demand import NetDemandProfile, load_demand
from evplan.fleet import ChargerCatalog, FleetSchedule, Vehicle, generate_commute_fleet
from evplan.linear_grid import GridLimits
from evplan.network import Bus, BusNetwork, Line, load_network
from evplan.solution import PlanAssignment

CONFIGS = (("spc", "A"), ("spc", "B"), ("mpc", "A"), ("mpc", "B"))

# The small fast charger of the acceptance suite's tiny instances, so that
# tiny batteries can use both charger types.
TINY_CATALOG = ChargerCatalog(
    fast_kva=7.2,
    slow_kva=2.4,
    fast_pf=0.9,
    slow_pf=0.9,
    fast_charger_cost=3000.0,
    slow_charger_cost=800.0,
    fast_plug_cost=450.0,
    slow_plug_cost=120.0,
)
TINY_LIMITS = GridLimits(0.97, 1.03)


@dataclass
class Fleet:
    schedule: FleetSchedule
    vehicles: list[Vehicle]


@dataclass
class Case:
    """Raw inputs of one planning case, before linearization."""

    network: BusNetwork
    demand: NetDemandProfile
    fleet: Fleet
    catalog: ChargerCatalog
    limits: GridLimits


def sub_seed(seed: int, k: int) -> int:
    """Independent 32-bit seed for item ``k`` of a run seeded with ``seed``
    (any integer; SeedSequence takes non-negative entropy only)."""
    return int(np.random.SeedSequence((seed % 2**64, k)).generate_state(1)[0])


def bundled_grid() -> tuple[BusNetwork, NetDemandProfile]:
    network = load_network(data_path("cigre_mv_14bus.json"))
    return network, load_demand(data_path("demand_24h.csv"), network)


def commute_fleet(network: BusNetwork, count: int, seed: int) -> Fleet:
    schedule, vehicles = generate_commute_fleet(
        network.cluster_nodes(1), network.cluster_nodes(2), count, seed=seed
    )
    return Fleet(schedule, vehicles)


def tiny_case(seed: int) -> Case:
    """Small seeded commute case that the exhaustive oracle can certify:
    a chain of 2-3 rated nodes, 5-6 hours, 1-2 vehicles. Built the way the
    acceptance suite builds its tiny battery."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, 4))
    buses = [Bus(0, 20.0)]
    clusters = [1, 2, 2]
    for k in range(n_nodes):
        buses.append(Bus(k + 1, 20.0, float(rng.integers(15, 50)), 0.95, clusters[k]))
    lines = [
        Line(k, k + 1, float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.4, 1.4)),
             0.0, float(rng.uniform(4.0, 12.0)))
        for k in range(n_nodes)
    ]
    net = BusNetwork(
        buses=tuple(buses),
        lines=tuple(lines),
        slack_bus=0,
        slack_voltage_pu=1.0,
        transformer_kva=float(rng.integers(120, 300)),
        base_kva=1000.0,
        base_kv=20.0,
    )
    T = int(rng.integers(5, 7))
    node_ids = tuple(net.node_ids)

    shape = rng.uniform(0.2, 0.6, size=T)
    p = np.zeros((len(node_ids), T))
    q = np.zeros_like(p)
    for r, node in enumerate(node_ids):
        bus = net.buses[net.bus_index(node)]
        p[r] = bus.rating_kva * bus.power_factor * shape
        q[r] = p[r] * np.tan(np.arccos(bus.power_factor))
    demand = NetDemandProfile(node_ids=node_ids, p_kw=p, q_kvar=q)

    homes = [n for n in node_ids if net.buses[net.bus_index(n)].cluster == 1]
    works = [n for n in node_ids if net.buses[net.bus_index(n)].cluster == 2]
    # At most 7 parked slots keep the oracle's enumeration small: 1-2 vehicles.
    V = 1 if int(rng.integers(1, 4)) == 1 else 2

    parked = np.zeros((V, T, len(node_ids)), dtype=bool)
    discharge = np.zeros((V, T))
    bounds = np.zeros((V, 4), dtype=int)
    vehicles = []
    col = {n: i for i, n in enumerate(node_ids)}
    for v in range(V):
        home = homes[int(rng.integers(0, len(homes)))]
        work = works[int(rng.integers(0, len(works)))]
        dep_home, arr_work = 1, 2
        dep_work = T - 3 if T >= 6 else T - 2
        arr_home = T - 1
        parked[v, :dep_home, col[home]] = True
        parked[v, arr_work:dep_work, col[work]] = True
        parked[v, arr_home:, col[home]] = True
        leg = float(rng.uniform(0.4, 1.6))
        discharge[v, dep_home:arr_work] = leg / (arr_work - dep_home)
        discharge[v, dep_work:arr_home] = leg / (arr_home - dep_work)
        bounds[v] = (arr_home, dep_home, arr_work, dep_work)
        vehicles.append(
            Vehicle(
                id=v,
                battery_kwh=float(rng.uniform(10.0, 16.0)),
                efficiency=float(rng.uniform(0.85, 0.95)),
                soc_min=0.1,
                soc_max=0.9,
                home_node=home,
                work_node=work,
                stay_bounds=tuple(int(x) for x in bounds[v]),
            )
        )
    schedule = FleetSchedule(
        node_ids=node_ids, parked=parked, discharge_kw=discharge, stay_bounds=bounds
    )
    return Case(net, demand, Fleet(schedule, vehicles), TINY_CATALOG, TINY_LIMITS)


def home_charging_plan(schedule: FleetSchedule, vehicles: list[Vehicle],
                       catalog: ChargerCatalog) -> PlanAssignment:
    """The benchmark's own plan: every vehicle plugs a slow charger on its
    evening arrival home, stays plugged to the end of the day, and charges
    from arrival until the day's driving energy is back. The initial SOC is
    the middle of the range that keeps the battery within its limits."""
    V, T = schedule.n_vehicles, schedule.horizon
    slow_plug = np.zeros((V, T), dtype=int)
    slow_charge = np.zeros((V, T), dtype=int)
    soc_start = np.zeros(V)
    ts = schedule.ts_hours
    for v, veh in enumerate(vehicles):
        arrive = int(schedule.stay_bounds[v][0])
        per_hour = veh.efficiency * catalog.slow_kw * ts
        hours = math.ceil(schedule.discharge_kw[v].sum() * ts / per_hour - 1e-9)
        slow_plug[v, arrive:] = 1
        slow_charge[v, arrive:arrive + hours] = 1
        net = ts * (veh.efficiency * catalog.slow_kw * slow_charge[v]
                    - schedule.discharge_kw[v]) / veh.battery_kwh
        level = np.concatenate([[0.0], np.cumsum(net)])
        lo, hi = veh.soc_min - level.min(), veh.soc_max - level.max()
        soc_start[v] = 0.5 * (lo + hi)
    zeros = np.zeros((V, T), dtype=int)
    return PlanAssignment(zeros, slow_charge, zeros.copy(), slow_plug, soc_start)
