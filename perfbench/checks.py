"""Correctness checks, each computed apart from the figures the program
reports: costs recomputed from raw binaries and catalog prices, exact AC
load flows, the HiGHS solver in scipy, the exhaustive oracle, an
independent MPS reader, and the agreement of the verifier with the built
model. Every checker returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from evplan import loadflow, oracle, solution, verify

COST_TOL = 1e-6
V_TOL_PU = 1e-5  # exact flows may exceed a binding linear row by the linearization error
REL_TOL = 1e-6
LIN_TOL_PU = 5e-3
MPS_REL_TOL = 1e-11  # exporter writes 12 significant digits


def plan_cost(instance, assignment) -> float:
    """Equipment cost from the raw binaries: per node, the peak over time of
    vehicles parked there and plugged (or charging), times catalog prices."""
    parked = instance.schedule.parked.astype(int)  # (V, T, N)

    def peak(bits):
        return np.einsum("vtn,vt->nt", parked, np.asarray(bits, dtype=int)).max(axis=1)

    fast_plugs, slow_plugs = peak(assignment.fast_plug), peak(assignment.slow_plug)
    if instance.chargers == "spc":
        fast_chargers, slow_chargers = fast_plugs, slow_plugs
    else:
        fast_chargers = peak(assignment.fast_charge)
        slow_chargers = slow_plugs if instance.mpc_slow_literal else peak(assignment.slow_charge)
    cat = instance.catalog
    return float(cat.fast_charger_cost * fast_chargers.sum()
                 + cat.slow_charger_cost * slow_chargers.sum()
                 + cat.fast_plug_cost * fast_plugs.sum()
                 + cat.slow_plug_cost * slow_plugs.sum())


def cost_problems(label, instance, assignment, reported) -> list[str]:
    expected = plan_cost(instance, assignment)
    if reported is None or abs(expected - reported) > COST_TOL:
        return [f"{label}: reported cost {reported} but the plan costs {expected}"]
    return []


def ev_injections(instance, assignment):
    """(P, Q) in kW/kVAr per network node and hour, from the raw binaries."""
    cat = instance.catalog
    parked = instance.schedule.parked.astype(float)
    fast = np.asarray(assignment.fast_charge, dtype=float)
    slow = np.asarray(assignment.slow_charge, dtype=float)
    p = np.einsum("vtn,vt->nt", parked, cat.fast_kw * fast + cat.slow_kw * slow)
    q = np.einsum("vtn,vt->nt", parked, cat.fast_kvar * fast + cat.slow_kvar * slow)
    return p, q  # rows follow schedule.node_ids


def exact_flow_problems(label, instance, assignment) -> tuple[list[str], int]:
    """Exact AC load flow at every hour with the plan's charging; checks
    voltages, line ampacities and the transformer. Returns (problems, flows)."""
    net = instance.network
    limits = instance.limits
    dp, dq = ev_injections(instance, assignment)
    rows = [net.bus_index(n) for n in instance.schedule.node_ids]
    nodes = [net.bus_index(n) for n in net.node_ids]
    ampacity = np.array([ln.ampacity_a for ln in net.lines])
    problems = []
    for t in range(instance.horizon):
        p, q = instance.demand.demand_at(net, t)
        p[rows] += dp[:, t]
        q[rows] += dq[:, t]
        point = loadflow.solve_load_flow(net, p, q)
        v = point.voltage_pu[nodes]
        if v.min() < limits.v_min_pu - V_TOL_PU or v.max() > limits.v_max_pu + V_TOL_PU:
            problems.append(f"{label}: hour {t} voltage range [{v.min():.6f}, {v.max():.6f}]")
        if np.any(point.current_a > ampacity * (1 + REL_TOL)):
            problems.append(f"{label}: hour {t} line current above ampacity")
        if point.slack_kva > net.transformer_kva * (1 + REL_TOL):
            problems.append(f"{label}: hour {t} transformer at {point.slack_kva:.3f} kVA")
    return problems, instance.horizon


def plan_problems(label, instance, assignment, reported, report) -> tuple[list[str], int]:
    """Reported cost, the pipeline's verifier report (made with the reported
    counts) and exact flows. Returns (problems, exact flows solved)."""
    problems = cost_problems(label, instance, assignment, reported)
    problems += [f"{label}: verifier: {v.rule} at {v.where}" for v in report.violations[:3]]
    flow_problems, flows = exact_flow_problems(label, instance, assignment)
    return problems + flow_problems, flows


def bound_problems(label, objective, bound, lower, upper) -> list[str]:
    """A reported (objective, bound) pair against a reference interval that
    holds the true optimum: bound <= objective, objective >= lower,
    bound <= upper."""
    tol = COST_TOL * max(1.0, abs(upper) if np.isfinite(upper) else 1.0)
    problems = []
    if objective is not None and bound > objective + tol:
        problems.append(f"{label}: bound {bound} above objective {objective}")
    if objective is not None and objective < lower - tol:
        problems.append(f"{label}: objective {objective} below the reference bound {lower}")
    if bound > upper + tol:
        problems.append(f"{label}: bound {bound} above the reference incumbent {upper}")
    return problems


def oracle_problems(label, status, objective, ref) -> list[str]:
    """Status and objective of an exact solve against the oracle result."""
    if ref.status == "infeasible":
        return [] if status == "infeasible" else [f"{label}: {status} but the oracle finds no plan"]
    if status != "optimal" or objective is None or abs(objective - ref.objective) > COST_TOL:
        return [f"{label}: {status} {objective}, oracle optimum {ref.objective}"]
    return []


def run_oracle(instance):
    return oracle.brute_force_oracle(instance, max_free_binaries=40)


def dominance_problems(label, costs: dict) -> list[str]:
    """cost(MPC) <= cost(SPC) and cost(B) <= cost(A) on exact optima; a
    configuration with a plan implies its dominating one has a plan too.
    ``costs`` maps "spc-A" etc. to an optimum or None (no plan)."""
    problems = []
    for big, small in (("spc-A", "mpc-A"), ("spc-B", "mpc-B"), ("spc-A", "spc-B"), ("mpc-A", "mpc-B")):
        hi, lo = costs[big], costs[small]
        if hi is not None and (lo is None or lo > hi + COST_TOL):
            problems.append(f"{label}: {small} {lo} not <= {big} {hi}")
    return problems


def read_mps(path) -> dict:
    """Independent reader of the fixed-format subset the exporter writes."""
    senses, rhs, obj, is_int = {}, {}, {}, {}
    rows, cols, vals = [], [], []
    bounds = []
    section, in_int, objective = None, False, None
    with open(path) as fh:
        for raw in fh:
            if not raw.strip():
                continue
            if not raw.startswith(" "):
                section = raw.split()[0]
                continue
            parts = raw.split()
            if section == "ROWS":
                if parts[0] == "N":
                    objective = parts[1]
                else:
                    senses[int(parts[1][1:]) - 1] = parts[0]
            elif section == "COLUMNS":
                if parts[1] == "'MARKER'":
                    in_int = parts[2] == "'INTORG'"
                    continue
                j = int(parts[0][1:]) - 1
                is_int[j] = in_int
                for name, value in zip(parts[1::2], parts[2::2]):
                    if name == objective:
                        obj[j] = float(value)
                    else:
                        rows.append(int(name[1:]) - 1)
                        cols.append(j)
                        vals.append(float(value))
            elif section == "RHS":
                rhs[int(parts[1][1:]) - 1] = float(parts[2])
            elif section == "BOUNDS":
                bounds.append((parts[0], int(parts[2][1:]) - 1,
                               float(parts[3]) if len(parts) > 3 else None))
    return {"senses": senses, "rhs": rhs, "obj": obj, "is_int": is_int,
            "entries": (rows, cols, vals), "bounds": bounds}


def mps_problems(label, model, path) -> list[str]:
    """The re-read file must hold the model's rows, senses, right-hand
    sides, bounds, integrality, objective and nonzeros."""
    got = read_mps(path)
    m, n = model.n_rows, model.n_cols
    problems = []

    def differ(a, b):
        return not np.allclose(a, b, rtol=MPS_REL_TOL, atol=0.0)

    if len(got["senses"]) != m or [got["senses"].get(i) for i in range(m)] != list(model.row_sense):
        problems.append(f"{label}: row senses differ")
    rhs = np.zeros(m)
    for i, b in got["rhs"].items():
        rhs[i] = b
    if differ(rhs, model.rhs):
        problems.append(f"{label}: right-hand sides differ")
    obj = np.zeros(n)
    for j, c in got["obj"].items():
        obj[j] = c
    if differ(obj, model.obj):
        problems.append(f"{label}: objective differs")
    if len(got["is_int"]) != n or any(got["is_int"][j] != bool(model.is_int[j]) for j in range(n)):
        problems.append(f"{label}: integrality differs")
    r, c, v = got["entries"]
    A = sp.csr_matrix((v, (r, c)), shape=(m, n))
    diff = abs(A - model.A)
    if A.nnz != model.A.nnz or (diff.nnz and diff.max() > MPS_REL_TOL * abs(model.A).max()):
        problems.append(f"{label}: matrix differs ({A.nnz} vs {model.A.nnz} nonzeros)")
    lb, ub = np.zeros(n), np.full(n, np.inf)
    for kind, j, value in got["bounds"]:
        if kind == "FX":
            lb[j] = ub[j] = value
        elif kind == "FR":
            lb[j], ub[j] = -np.inf, np.inf
        elif kind == "MI":
            lb[j] = -np.inf
        elif kind == "LO":
            lb[j] = value
        elif kind == "UP":
            ub[j] = value
        elif kind == "PL":
            ub[j] = np.inf
        else:
            problems.append(f"{label}: unknown bound type {kind}")
    if not (np.array_equal(np.isinf(lb), np.isinf(model.lb))
            and np.array_equal(np.isinf(ub), np.isinf(model.ub))):
        problems.append(f"{label}: infinite bounds differ")
    finite = np.isfinite(model.lb) & np.isfinite(lb)
    if differ(lb[finite], model.lb[finite]):
        problems.append(f"{label}: lower bounds differ")
    finite = np.isfinite(model.ub) & np.isfinite(ub)
    if differ(ub[finite], model.ub[finite]):
        problems.append(f"{label}: upper bounds differ")
    return problems


def linearization_problems(label, instance, scale=0.2) -> tuple[list[str], int]:
    """Linearized voltages against exact load flows with the EV-free demand
    moved by +/- ``scale`` at every hour. Returns (problems, flows)."""
    net = instance.network
    problems, worst = [], 0.0
    for t, sens in enumerate(instance.linearizations):
        p0, q0 = instance.demand.demand_at(net, t)
        cols = [net.bus_index(n) for n in sens.node_ids]
        for sign in (-1.0, 1.0):
            dp, dq = sign * scale * p0[cols], sign * scale * q0[cols]
            p, q = p0.copy(), q0.copy()
            p[cols] += dp
            q[cols] += dq
            exact = loadflow.solve_load_flow(net, p, q)
            linear = sens.point.voltage_pu + sens.dv_dp @ dp + sens.dv_dq @ dq
            worst = max(worst, float(np.max(np.abs(linear - exact.voltage_pu))))
    if worst > LIN_TOL_PU:
        problems.append(f"{label}: linearized voltage off by {worst:.2e} pu")
    return problems, 2 * len(instance.linearizations)


def same_linearization(label, a, b) -> list[str]:
    """Cases on the same grid and demand share the EV-free operating point,
    so their linearizations must agree."""
    for t, (x, y) in enumerate(zip(a, b, strict=True)):
        for name in ("dv_dp", "dv_dq", "di_dp", "di_dq", "ds0_dp", "ds0_dq"):
            if not np.allclose(getattr(x, name), getattr(y, name), rtol=1e-9, atol=1e-12):
                return [f"{label}: {name} at hour {t} differs from the first case"]
        if not np.allclose(x.point.voltage_pu, y.point.voltage_pu, rtol=1e-12, atol=0):
            return [f"{label}: operating point at hour {t} differs from the first case"]
    return []


def judgement(instance, model, assignment) -> tuple[bool, bool]:
    """(verifier accepts, built model accepts) for one plan."""
    counts = solution.recompute_counts(instance, assignment)
    ok_verify = verify.verify_solution(instance, assignment, counts=counts, spot_checks=0).ok
    x = solution.assignment_to_columns(model, instance, assignment)
    return ok_verify, not model.check_point(x)


def agreement_problems(label, instance, model, assignment, mutate=False):
    """The verifier and the built model must judge the plan alike, and,
    with ``mutate``, every single-bit mutation of its four binary families.
    Returns (problems, plans judged, the verifier's verdict on the plan)."""
    problems = []
    ok = judgement(instance, model, assignment)
    if ok[0] != ok[1]:
        problems.append(f"{label}: verifier says {ok[0]}, model says {ok[1]}")
    judged = 1
    if not mutate:
        return problems, judged, ok[0]
    for family in ("fast_charge", "slow_charge", "fast_plug", "slow_plug"):
        bits = getattr(assignment, family)
        for v, t in np.ndindex(*bits.shape):
            bits[v, t] ^= 1
            try:
                got = judgement(instance, model, assignment)
            finally:
                bits[v, t] ^= 1
            judged += 1
            if got[0] != got[1] and len(problems) < 5:
                problems.append(f"{label}: {family}[{v},{t}] flipped: verifier {got[0]}, model {got[1]}")
    return problems, judged, ok[0]
