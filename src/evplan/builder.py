"""Assemble the charger planning MILP from a PlanInstance.

Variable families, in column order:

    fast_charge, slow_charge    (V, T) binary   charging states
    fast_plug, slow_plug        (V, T) binary   connection states
    soc_start                   (V,)   cont.    free initial SOC
    fast_connect/disconnect,
    slow_connect/disconnect     (V, T) binary   plug-state edges
    fast_chargers, slow_chargers,
    fast_plugs, slow_plugs      (N,)   cont.    per-node equipment counts

Each constraint family is one function that appends its rows to the model
as a block of COO arrays, built by broadcasting over the (vehicle,
interval) index grids of the column families. The grid coupling appends one
block per interval from that interval's ``GridRows`` matrices.
``build_plan_model`` calls the families in a fixed order, which fixes the
row order.

Count variables stay continuous: their lower bounds are integer sums of
binaries and their costs are positive, so they are integral at any optimum
(the verifier asserts this post-hoc).

Driver-flexibility restrictions that pin a single connect/disconnect
variable to zero are applied as upper-bound fixes rather than explicit
rows; the feasible set is identical and the LP stays smaller.
"""

from __future__ import annotations

import numpy as np

from .errors import BuildError, ScheduleError
from .fleet import validate_schedule
from .instance import PlanInstance
from .milp import BINARY, CONTINUOUS, SENSE_EQ, SENSE_GE, SENSE_LE, Labels, MilpModel

VT_FAMILIES = (
    "fast_charge",
    "slow_charge",
    "fast_plug",
    "slow_plug",
)
EDGE_FAMILIES = (
    "fast_connect",
    "fast_disconnect",
    "slow_connect",
    "slow_disconnect",
)
COUNT_FAMILIES = ("fast_chargers", "slow_chargers", "fast_plugs", "slow_plugs")


def _coo(*terms):
    """Concatenate (row, column, value) terms into COO arrays; the three
    parts of a term broadcast against each other."""
    parts = [np.broadcast_arrays(r, c, np.asarray(v, dtype=float)) for r, c, v in terms]
    return tuple(np.concatenate([p[k].ravel() for p in parts]) for k in range(3))


def _vt(V: int, T: int) -> np.ndarray:
    """The (v, t) index pairs of a (V, T) grid in C order, one row each for
    v and t."""
    return np.indices((V, T)).reshape(2, -1)


class _SocLabels:
    """Per vehicle v: ``soc_lo[v,t]`` and ``soc_hi[v,t]`` for t = 1..T,
    then ``soc_final[v]``; metas ``(name, v, t)`` and ``("soc_final", v)``."""

    def __init__(self, V: int, T: int):
        self.V, self.T = V, T
        self.size = V * (2 * T + 1)

    def names(self, escape=str) -> list[str]:
        lo, hi, final = map(escape, ("soc_lo", "soc_hi", "soc_final"))
        out = []
        for v in range(self.V):
            out += [f"{n}[{v},{t}]" for t in range(1, self.T + 1) for n in (lo, hi)]
            out.append(f"{final}[{v}]")
        return out

    def metas(self) -> list[tuple]:
        out = []
        for v in range(self.V):
            out += [(n, v, t) for t in range(1, self.T + 1) for n in ("soc_lo", "soc_hi")]
            out.append(("soc_final", v))
        return out


class _GridLabels:
    """Hour t's grid rows ``grid[t]:kind[subject]`` with metas
    ``("grid", t, kind, subject)``."""

    def __init__(self, t: int, kinds: list[str], subjects: np.ndarray):
        self.t, self.kinds, self.subjects = t, kinds, subjects.tolist()
        self.size = len(kinds)

    def names(self, escape=str) -> list[str]:
        kinds = {k: escape(k) for k in set(self.kinds)}
        head = f"{escape('grid')}[{self.t}]:"
        return [f"{head}{kinds[k]}[{s}]" for k, s in zip(self.kinds, self.subjects)]

    def metas(self) -> list[tuple]:
        return [("grid", self.t, k, s) for k, s in zip(self.kinds, self.subjects)]


def _columns(inst: PlanInstance) -> MilpModel:
    m = MilpModel()
    V, T = inst.n_vehicles, inst.horizon
    N = len(inst.node_ids)
    for fam in VT_FAMILIES:
        m.add_family(fam, (V, T), BINARY)
    m.add_family(
        "soc_start", (V,), CONTINUOUS,
        lb=[veh.soc_min for veh in inst.vehicles], ub=[veh.soc_max for veh in inst.vehicles],
    )
    for fam in EDGE_FAMILIES:
        m.add_family(fam, (V, T), BINARY)
    for fam in COUNT_FAMILIES:
        m.add_family(fam, (N,), CONTINUOUS, lb=0.0, ub=np.inf)
    return m


def _plug_logic(m: MilpModel, inst: PlanInstance):
    """Plugged only while parked; charging only while plugged."""
    fc, sc, fp, sp = (m.family(f) for f in VT_FAMILIES)
    V, T = fc.shape
    # Per (v, t): plug_cap, fast_chg_le, slow_chg_le.
    r = 3 * np.arange(V * T).reshape(V, T)
    rows, cols, vals = _coo(
        (r, fp, 1.0), (r, sp, 1.0),
        (r + 1, fc, 1.0), (r + 1, fp, -1.0),
        (r + 2, sc, 1.0), (r + 2, sp, -1.0),
    )
    rhs = np.zeros((V, T, 3))
    rhs[:, :, 0] = inst.schedule.parked.any(axis=2)
    labels = Labels(("plug_cap", "fast_chg_le", "slow_chg_le"), _vt(V, T), ("plug_cap", "chg_le", "chg_le"))
    m.add_rows(labels, rows, cols, vals, SENSE_LE, rhs.ravel())


def _soc_constraints(m: MilpModel, inst: PlanInstance):
    """Battery bounds at every interval plus the no-free-energy rule
    (final SOC at least the initial one). The SOC is substituted as an
    affine expression of the charge binaries and the initial SOC."""
    fc, sc = m.family("fast_charge"), m.family("slow_charge")
    z = m.family("soc_start")
    V, T = fc.shape
    ts = inst.schedule.ts_hours
    cat = inst.catalog
    vehicles = inst.vehicles
    battery = np.array([veh.battery_kwh for veh in vehicles])
    efficiency = np.array([veh.efficiency for veh in vehicles])
    kf = efficiency * ts * cat.fast_kw / battery
    ks = efficiency * ts * cat.slow_kw / battery
    dis = (ts / battery)[:, None] * np.cumsum(inst.schedule.discharge_kw, axis=1)

    # Per vehicle: soc_lo and soc_hi after each interval t, then soc_final.
    base = (2 * T + 1) * np.arange(V)[:, None]
    lo = base + 2 * np.arange(T)
    final = base + 2 * T
    after, charged = np.tril_indices(T)  # interval `charged` counts at the end of `after`
    terms = [(lo + k, z[:, None], 1.0) for k in (0, 1)]
    terms += [
        (lo[:, after] + k, fam[:, charged], coef[:, None])
        for k in (0, 1)
        for fam, coef in ((fc, kf), (sc, ks))
    ]
    terms += [(final, fc, kf[:, None]), (final, sc, ks[:, None])]
    rows, cols, vals = _coo(*terms)

    rhs = np.empty((V, 2 * T + 1))
    rhs[:, 0:2 * T:2] = np.array([veh.soc_min for veh in vehicles])[:, None] + dis
    rhs[:, 1:2 * T:2] = np.array([veh.soc_max for veh in vehicles])[:, None] + dis
    rhs[:, 2 * T] = dis[:, T - 1]
    m.add_rows(_SocLabels(V, T), rows, cols, vals, ([SENSE_GE, SENSE_LE] * T + [SENSE_GE]) * V, rhs.ravel())


def _grid_coupling(m: MilpModel, inst: PlanInstance):
    """Linearized voltage/current/transformer rows plus nodal apparent
    power boxes, one block per interval, with the EV charging power as the
    injection increment."""
    fc, sc = m.family("fast_charge"), m.family("slow_charge")
    cat = inst.catalog
    for t, block in enumerate(inst.grid_rows):
        v = np.flatnonzero(inst.parked_col[:, t] >= 0)
        p, q = block.p_coef[:, inst.parked_col[v, t]], block.q_coef[:, inst.parked_col[v, t]]
        r = np.arange(len(block))[:, None]
        rows, cols, vals = _coo(
            (r, fc[v, t], p * cat.fast_kw + q * cat.fast_kvar),
            (r, sc[v, t], p * cat.slow_kw + q * cat.slow_kvar),
        )
        m.add_rows(_GridLabels(t, block.kind, block.subject), rows, cols, vals, SENSE_LE, block.rhs)


def _count_rows(m: MilpModel, inst: PlanInstance, count_family: str, state_family: str, label: str):
    """count[n] >= sum of the states of the vehicles parked at n, for every
    (node, interval) where some vehicle is parked."""
    counts, states = m.family(count_family), m.family(state_family)
    parked_col = inst.parked_col
    v, t = np.nonzero(parked_col >= 0)
    n = parked_col[v, t]
    present = np.zeros((len(inst.node_ids), inst.horizon), dtype=bool)
    present[n, t] = True
    row = np.cumsum(present).reshape(present.shape) - 1  # node-major, as the rows are laid out
    pn, pt = np.nonzero(present)
    rows, cols, vals = _coo((row[pn, pt], counts[pn], 1.0), (row[n, t], states[v, t], -1.0))
    labels = Labels((label,), (np.asarray(inst.node_ids)[pn], pt))
    m.add_rows(labels, rows, cols, vals, SENSE_GE, 0.0)


def _counts_spc(m: MilpModel, inst: PlanInstance):
    """Single-port: chargers track simultaneous connections; plug counts
    equal charger counts."""
    _count_rows(m, inst, "fast_chargers", "fast_plug", "spc_fast")
    _count_rows(m, inst, "slow_chargers", "slow_plug", "spc_slow")
    k = 2 * np.arange(len(inst.node_ids))
    rows, cols, vals = _coo(
        (k, m.family("fast_plugs"), 1.0), (k, m.family("fast_chargers"), -1.0),
        (k + 1, m.family("slow_plugs"), 1.0), (k + 1, m.family("slow_chargers"), -1.0),
    )
    labels = Labels(("spc_fast_tie", "spc_slow_tie"), (inst.node_ids,), ("spc_tie", "spc_tie"))
    m.add_rows(labels, rows, cols, vals, SENSE_EQ, 0.0)


def _counts_mpc(m: MilpModel, inst: PlanInstance):
    """Multi-port: charger conversion stages track simultaneous charging,
    plugs track simultaneous connections. Slow chargers count charging
    states by default; the literal variant counts connections."""
    _count_rows(m, inst, "fast_chargers", "fast_charge", "mpc_fast_chargers")
    slow_source = "slow_plug" if inst.mpc_slow_literal else "slow_charge"
    _count_rows(m, inst, "slow_chargers", slow_source, "mpc_slow_chargers")
    _count_rows(m, inst, "fast_plugs", "fast_plug", "mpc_fast_plugs")
    _count_rows(m, inst, "slow_plugs", "slow_plug", "mpc_slow_plugs")


def _cost_objective(m: MilpModel, inst: PlanInstance):
    cat = inst.catalog
    m.set_objective(m.family("fast_chargers"), cat.fast_charger_cost)
    m.set_objective(m.family("slow_chargers"), cat.slow_charger_cost)
    m.set_objective(m.family("fast_plugs"), cat.fast_plug_cost)
    m.set_objective(m.family("slow_plugs"), cat.slow_plug_cost)


def _edge_detection(m: MilpModel, inst: PlanInstance):
    """Connection/disconnection indicators from plug-state edges; the
    fleet starts unplugged at the horizon boundary."""
    V, T = m.family("fast_plug").shape
    # Per (v, t): the connect row, then the disconnect row.
    r = 2 * np.arange(V * T).reshape(V, T)
    for kind in ("fast", "slow"):
        conn, disc, plug = (m.family(f"{kind}_{f}") for f in ("connect", "disconnect", "plug"))
        rows, cols, vals = _coo(
            (r, conn, 1.0), (r, plug, -1.0), (r[:, 1:], plug[:, :-1], 1.0),
            (r + 1, disc, 1.0), (r + 1, plug, 1.0), (r[:, 1:] + 1, plug[:, :-1], -1.0),
        )
        labels = Labels((f"{kind}_connect", f"{kind}_disconnect"), _vt(V, T), ("edge", "edge"))
        m.add_rows(labels, rows, cols, vals, SENSE_GE, 0.0)


def _scenario(m: MilpModel, inst: PlanInstance):
    """Driver-flexibility rules.

    A (stiff): connect only on arriving at a stay, disconnect only when
    leaving it. B (flexible): overnight stays as in A, but connections
    are free during the midday stay with at most one disconnection
    there. A vehicle already parked at t=0 may start plugged without the
    event counting against the rules.
    """
    V, T = m.family("fast_plug").shape
    tau = inst.schedule.stay_bounds
    # No driving legs: one stay covering the horizon, so the only
    # connection opportunity is the start of the day. Its negative stay
    # bounds match no interval below.
    single_stay = np.all(tau < 0, axis=1)
    partial = np.flatnonzero(np.any(tau < 0, axis=1) & ~single_stay)
    if partial.size:
        raise BuildError(f"vehicle {partial[0]}: scenario constraints need stay bounds")
    arr_home, dep_home, arr_work, dep_work = (tau[:, k, None] for k in range(4))
    t = np.arange(T)
    if inst.scenario == "A":
        allowed_c = (t == arr_home) | (t == arr_work)
        allowed_d = (t == dep_home) | (t == dep_work)
    else:
        allowed_c = (t == arr_home) | ((arr_work <= t) & (t < dep_work))
        allowed_d = np.ones((V, T), dtype=bool)
    allowed_c[:, 0] |= inst.schedule.parked[:, 0].any(axis=1)
    for fam, allowed in (
        ("fast_connect", allowed_c),
        ("slow_connect", allowed_c),
        ("fast_disconnect", allowed_d),
        ("slow_disconnect", allowed_d),
    ):
        m.set_bounds(m.family(fam)[~allowed], 0.0, 0.0)
    if inst.scenario == "B":
        budget = np.flatnonzero(~single_stay)
        k, s = np.nonzero(((arr_work <= t) & (t <= dep_work))[budget])
        rows, cols, vals = _coo(
            (2 * k, m.family("fast_disconnect")[budget[k], s], 1.0),
            (2 * k + 1, m.family("slow_disconnect")[budget[k], s], 1.0),
        )
        labels = Labels(("midday_budget_fast", "midday_budget_slow"), (budget,), ("midday_budget",) * 2)
        m.add_rows(labels, rows, cols, vals, SENSE_LE, 1.0)


def build_plan_model(instance: PlanInstance) -> MilpModel:
    """Assemble and freeze the planning MILP: the column families, then the
    constraint families in canonical order."""
    issues = validate_schedule(instance.schedule)
    if issues:
        raise ScheduleError("invalid schedule: " + "; ".join(issues[:5]))
    m = _columns(instance)
    _plug_logic(m, instance)
    _soc_constraints(m, instance)
    _grid_coupling(m, instance)
    if instance.chargers == "spc":
        _counts_spc(m, instance)
    else:
        _counts_mpc(m, instance)
    _cost_objective(m, instance)
    _edge_detection(m, instance)
    _scenario(m, instance)
    return m.freeze()
