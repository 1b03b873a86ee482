"""Shared test machinery: tiny seeded instances and independent oracles."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import scipy.sparse as sp

from evplan.demand import NetDemandProfile
from evplan.fleet import ChargerCatalog, FleetSchedule, Vehicle
from evplan.instance import PlanInstance, prepare_instance
from evplan.linear_grid import GridLimits
from evplan.loadflow import OperatingPoint, solve_load_flow
from evplan.milp import MilpModel
from evplan.mps_io import MODEL_NAME, OBJECTIVE
from evplan.network import Bus, BusNetwork, Line
from evplan.sensitivity import SensitivityCoefficients

# Small fast charger so tiny batteries can actually use both types.
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


def two_bus_network(r_ohm=4.0, x_ohm=8.0, base_kva=1000.0, base_kv=20.0,
                    slack_v=1.0, ampacity=500.0) -> BusNetwork:
    return BusNetwork(
        buses=(Bus(0, base_kv), Bus(1, base_kv, 500.0, 0.95, 1)),
        lines=(Line(0, 1, r_ohm, x_ohm, 0.0, ampacity),),
        slack_bus=0,
        slack_voltage_pu=slack_v,
        transformer_kva=base_kva,
        base_kva=base_kva,
        base_kv=base_kv,
    )


def two_bus_exact_voltage(network: BusNetwork, p_kw: float, q_kvar: float) -> float:
    """Closed-form |V2| of the two-bus feeder (demand-positive load).

    With v = |V2|^2, the power-flow equation collapses to a quadratic
    v^2 + (2(Pr+Qx) - V1^2) v + (P^2+Q^2)|z|^2 = 0; the high-voltage root
    is the operating solution.
    """
    line = network.lines[0]
    zb = network.z_base_ohm
    r, x = line.r_ohm / zb, line.x_ohm / zb
    p = p_kw / network.base_kva
    q = q_kvar / network.base_kva
    v1 = network.slack_voltage_pu
    a = v1**2 / 2.0 - (p * r + q * x)
    disc = a**2 - (p**2 + q**2) * (r**2 + x**2)
    if disc < 0:
        raise ValueError("load beyond maximum transfer")
    return float(np.sqrt(a + np.sqrt(disc)))


def two_bus_exact_dv_dp(network: BusNetwork, p_kw: float, q_kvar: float) -> float:
    """Analytic derivative of the closed-form |V2| w.r.t. demand in kW."""
    line = network.lines[0]
    zb = network.z_base_ohm
    r, x = line.r_ohm / zb, line.x_ohm / zb
    p = p_kw / network.base_kva
    q = q_kvar / network.base_kva
    v1 = network.slack_voltage_pu
    z2 = r**2 + x**2
    a = v1**2 / 2.0 - (p * r + q * x)
    da = -r
    disc = a**2 - (p**2 + q**2) * z2
    ddisc = 2 * a * da - 2 * p * z2
    v = a + np.sqrt(disc)
    dv = da + ddisc / (2 * np.sqrt(disc))
    dvm_dp_pu = dv / (2 * np.sqrt(v))
    return float(dvm_dp_pu / network.base_kva)


def central_difference_sensitivities(
    network: BusNetwork, point: OperatingPoint, eps_pu: float = 1e-4
) -> SensitivityCoefficients:
    """Reference coefficients by central differences: each non-slack node's
    P and Q is moved by +/- eps of the base power and the load flow
    re-solved (four load flows per node)."""
    node_ids = tuple(network.node_ids)
    m = len(node_ids)
    eps_kw = eps_pu * network.base_kva
    blocks = {
        "dv": np.zeros((network.n_buses, 2 * m)),
        "di": np.zeros((network.n_lines, 2 * m)),
        "ds0": np.zeros(2 * m),
    }
    for col, bus_id in enumerate(node_ids):
        idx = network.bus_index(bus_id)
        for react in (False, True):
            flows = []
            for sign in (1.0, -1.0):
                p, q = point.p_kw.copy(), point.q_kvar.copy()
                (q if react else p)[idx] += sign * eps_kw
                flows.append(solve_load_flow(network, p, q))
            hi, lo = flows
            k = col + m * react
            blocks["dv"][:, k] = (hi.voltage_pu - lo.voltage_pu) / (2.0 * eps_kw)
            blocks["di"][:, k] = (hi.current_a - lo.current_a) / (2.0 * eps_kw)
            blocks["ds0"][k] = (hi.slack_kva - lo.slack_kva) / (2.0 * eps_kw)
    return SensitivityCoefficients(
        node_ids=node_ids,
        dv_dp=blocks["dv"][:, :m],
        dv_dq=blocks["dv"][:, m:],
        di_dp=blocks["di"][:, :m],
        di_dq=blocks["di"][:, m:],
        ds0_dp=blocks["ds0"][:m],
        ds0_dq=blocks["ds0"][m:],
        point=point,
    )


def tiny_network(n_nodes: int, rng: np.random.Generator) -> BusNetwork:
    """Chain grid with one slack and 2..3 rated nodes."""
    buses = [Bus(0, 20.0)]
    clusters = [1, 2, 2]
    for k in range(n_nodes):
        rating = float(rng.integers(15, 50))
        buses.append(Bus(k + 1, 20.0, rating, 0.95, clusters[k]))
    lines = []
    prev = 0
    for k in range(n_nodes):
        lines.append(
            Line(prev, k + 1, float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.4, 1.4)),
                 0.0, float(rng.uniform(4.0, 12.0)))
        )
        prev = k + 1
    return BusNetwork(
        buses=tuple(buses),
        lines=tuple(lines),
        slack_bus=0,
        slack_voltage_pu=1.0,
        transformer_kva=float(rng.integers(120, 300)),
        base_kva=1000.0,
        base_kv=20.0,
    )


def tiny_instance(
    seed: int,
    scenario: str = "A",
    chargers: str = "spc",
    mpc_slow_literal: bool = False,
    max_parked_slots: int = 7,
) -> PlanInstance:
    """Small seeded commute case an exhaustive oracle can certify.

    The grid, demand, stays and driving energies are randomized; limits are
    drawn tight enough that grid rows bind on some draws and some draws are
    outright infeasible.
    """
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, 4))
    net = tiny_network(n_nodes, rng)
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

    homes = [n for n in node_ids if net.buses[net.bus_index(n)].cluster == 1] or [node_ids[0]]
    works = [n for n in node_ids if net.buses[net.bus_index(n)].cluster == 2] or [node_ids[-1]]

    V = int(rng.integers(1, 4))
    while V * 3 > max_parked_slots:
        V -= 1
    V = max(V, 1)

    parked = np.zeros((V, T, len(node_ids)), dtype=bool)
    discharge = np.zeros((V, T))
    bounds = np.zeros((V, 4), dtype=int)
    vehicles = []
    col = {n: i for i, n in enumerate(node_ids)}
    for v in range(V):
        home = homes[int(rng.integers(0, len(homes)))]
        work = works[int(rng.integers(0, len(works)))]
        dep_home = 1
        arr_work = 2
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
        node_ids=node_ids,
        parked=parked,
        discharge_kw=discharge,
        stay_bounds=bounds,
        ts_hours=1.0,
    )
    return prepare_instance(
        net,
        demand,
        schedule,
        vehicles,
        catalog=TINY_CATALOG,
        scenario=scenario,
        chargers=chargers,
        limits=GridLimits(0.97, 1.03),
        mpc_slow_literal=mpc_slow_literal,
    )


def parent_walk_bounds(ref, lb0: np.ndarray, ub0: np.ndarray):
    """Reference for branch-and-bound node bounds: ``ref`` is a chain of
    single-column branches, ``(parent_ref, col, lo, hi)`` with ``None`` for
    the root, walked up one level at a time with ``max``/``min``."""
    lb, ub = lb0.copy(), ub0.copy()
    while ref is not None:
        ref, j, lo, hi = ref
        lb[j] = max(lb[j], lo)
        ub[j] = min(ub[j], hi)
    return lb, ub


def reference_mps_text(model: MilpModel) -> str:
    """The MPS text of ``model`` written one formatted number per matrix
    entry: the reference that ``mps_io.export_mps`` must match byte for
    byte."""
    rows = [f"R{k:07d}" for k in range(1, model.n_rows + 1)]
    cols = [f"C{k:07d}" for k in range(1, model.n_cols + 1)]

    def marker(k: int, opens: bool) -> str:
        return f"    MARKER{k:04d}  'MARKER'                 '{'INTORG' if opens else 'INTEND'}'\n"

    fields = [f"{name:<8}  " for name in [OBJECTIVE] + rows]
    A = sp.vstack([sp.csr_matrix(model.obj), model.A], format="csc")
    empty = [f"{fields[0]}{0.0:12.12G}"]
    fh = io.StringIO()
    fh.write(f"NAME          {MODEL_NAME}\nROWS\n N  {OBJECTIVE}\n")
    fh.writelines(f" {sense}  {name}\n" for sense, name in zip(model.row_sense, rows))
    fh.write("COLUMNS\n")
    n_marker, in_int = 0, False
    ptr = A.indptr.tolist()
    for cn, integral, p0, p1 in zip(cols, model.is_int.tolist(), ptr, ptr[1:]):
        if integral != in_int:
            in_int = integral
            fh.write(marker(n_marker, in_int))
            n_marker += 1
        cells = [
            f"{fields[i]}{v:12.12G}"
            for i, v in zip(A.indices[p0:p1].tolist(), A.data[p0:p1].tolist())
        ] or empty
        fh.writelines(f"    {cn}  {'   '.join(cells[a:a + 2])}\n" for a in range(0, len(cells), 2))
    if in_int:
        fh.write(marker(n_marker, False))

    fh.write("RHS\n")
    nz = np.flatnonzero(model.rhs != 0.0)
    fh.writelines(
        f"    RHS       {rows[i]}  {b:12.12G}\n" for i, b in zip(nz.tolist(), model.rhs[nz].tolist())
    )
    fh.write("BOUNDS\n")
    for cn, lo, hi, integral in zip(cols, model.lb.tolist(), model.ub.tolist(), model.is_int.tolist()):
        if lo == hi:
            fh.write(f" FX BND       {cn}  {lo:12.12G}\n")
        elif lo == -math.inf and hi == math.inf:
            fh.write(f" FR BND       {cn}\n")
        else:
            if lo == -math.inf:
                fh.write(f" MI BND       {cn}\n")
            elif lo != 0.0:
                fh.write(f" LO BND       {cn}  {lo:12.12G}\n")
            if hi != math.inf:
                fh.write(f" UP BND       {cn}  {hi:12.12G}\n")
            elif integral or lo != 0.0:
                fh.write(f" PL BND       {cn}\n")
    fh.write("ENDATA\n")
    return fh.getvalue()


def reference_sidecar_text(model: MilpModel) -> str:
    """The ``.columns.json`` sidecar as one ``json.dumps`` of a dict built
    from the rendered names and metas: the reference for the sidecar that
    ``mps_io.export_mps`` writes from the label records."""
    rows = [f"R{k:07d}" for k in range(1, model.n_rows + 1)]
    cols = [f"C{k:07d}" for k in range(1, model.n_cols + 1)]
    sidecar = {
        "objective": OBJECTIVE,
        "columns": {
            cn: {"name": name, "family": meta[0] if meta else None, "indices": meta[1] if meta else None}
            for cn, name, meta in zip(cols, model.col_names, model.col_meta)
        },
        "rows": dict(zip(rows, model.row_names)),
    }
    return json.dumps(sidecar) + "\n"


def reference_solution_text(model: MilpModel, x: np.ndarray) -> str:
    """``column-name value`` lines formatted one value at a time: the
    reference for ``mps_io.write_solution_file``."""
    cols = [f"C{k:07d}" for k in range(1, model.n_cols + 1)]
    return "".join(f"{cn} {v:.12g}\n" for cn, v in zip(cols, np.asarray(x).tolist()))
