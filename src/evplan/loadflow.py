"""Nonlinear load flow (Newton-Raphson, polar form, all nodes PQ).

This is the exact grid model that the sensitivity-based linear constraints
approximate. Inputs are demand-positive kW/kVAr per non-slack node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LoadFlowDivergenceError
from .network import BusNetwork

MISMATCH_TOL_PU = 1e-8
MAX_ITER = 30


@dataclass(frozen=True)
class OperatingPoint:
    """Converged grid state for one demand vector.

    ``p_kw``/``q_kvar`` are the demand-positive injections the state was
    solved for, indexed like ``network.buses`` (slack entry holds the slack
    residual demand, i.e. minus the power it supplies).
    """

    p_kw: np.ndarray
    q_kvar: np.ndarray
    voltage_pu: np.ndarray
    angle_rad: np.ndarray
    current_a: np.ndarray
    slack_kva: float
    mismatch_pu: float


def solve_load_flow(
    network: BusNetwork, demand_kw: np.ndarray, demand_kvar: np.ndarray
) -> OperatingPoint:
    """Newton-Raphson fixed point; raises LoadFlowDivergenceError on failure.

    Demand is given as arrays over all buses in network order; the slack
    entry is ignored.
    """
    n = network.n_buses
    sl = network.slack_index
    p = np.array(demand_kw, dtype=float)
    q = np.array(demand_kvar, dtype=float)
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError(f"expected {n} bus values, got {p.shape} and {q.shape}")
    p[sl] = 0.0
    q[sl] = 0.0

    ybus = network.admittance
    s_spec = -(p + 1j * q) / network.base_kva  # injection convention
    pq = network.node_bus

    vm = np.full(n, network.slack_voltage_pu)
    va = np.zeros(n)
    mismatch = np.inf
    for _ in range(MAX_ITER):
        v = vm * np.exp(1j * va)
        s_calc = v * np.conj(ybus @ v)
        ds = s_spec - s_calc
        mismatch = float(np.max(np.abs(np.concatenate([ds[pq].real, ds[pq].imag]))))
        if not np.isfinite(mismatch):
            raise LoadFlowDivergenceError(
                "load flow produced non-finite state", mismatch=mismatch
            )
        if mismatch <= MISMATCH_TOL_PU:
            return _finish(network, ybus, v, p, q, mismatch)
        j = jacobian(ybus, v, pq)
        rhs = np.concatenate([ds[pq].real, ds[pq].imag])
        try:
            step = np.linalg.solve(j, rhs)
        except np.linalg.LinAlgError as exc:
            raise LoadFlowDivergenceError(
                f"singular Jacobian: {exc}", mismatch=mismatch
            ) from exc
        m = len(pq)
        va[pq] += step[:m]
        vm[pq] += step[m:]
        if np.any(vm[pq] <= 0):
            raise LoadFlowDivergenceError(
                "voltage magnitude collapsed below zero", mismatch=mismatch
            )
    raise LoadFlowDivergenceError(
        f"no convergence within {MAX_ITER} iterations (mismatch {mismatch:.3e} pu)",
        mismatch=mismatch,
        iterations=MAX_ITER,
    )


def jacobian(ybus: np.ndarray, v: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Derivatives of the computed injections (P rows, then Q rows, over
    ``pq``) w.r.t. the state (angles, then magnitudes, over ``pq``), per-unit.

    Standard complex-form power flow derivatives; the Newton steps and the
    sensitivity coefficients share this matrix.
    """
    i = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(i)
    diag_vn = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_vn @ np.conj(diag_i) + diag_v @ np.conj(ybus @ diag_vn)
    # Mismatch is spec - calc, so the Newton matrix is +d(calc)/dx.
    d_va, d_vm = ds_dva[np.ix_(pq, pq)], ds_dvm[np.ix_(pq, pq)]
    m = len(pq)
    j = np.empty((2 * m, 2 * m))
    j[:m, :m], j[:m, m:] = d_va.real, d_vm.real
    j[m:, :m], j[m:, m:] = d_va.imag, d_vm.imag
    return j


def _finish(network, ybus, v, p, q, mismatch) -> OperatingPoint:
    sl = network.slack_index
    s_slack = (v * np.conj(ybus @ v))[sl] * network.base_kva
    p = p.copy()
    q = q.copy()
    p[sl] = -s_slack.real  # demand-positive residual at the slack
    q[sl] = -s_slack.imag
    return OperatingPoint(
        p_kw=p,
        q_kvar=q,
        voltage_pu=np.abs(v),
        angle_rad=np.angle(v),
        current_a=np.abs(network.line_currents @ v) * network.i_base_a,
        slack_kva=float(abs(s_slack)),
        mismatch_pu=mismatch,
    )
