"""Sensitivity coefficients of grid quantities w.r.t. nodal injections.

Exact first derivatives at a converged operating point, read from the load
flow's own Newton Jacobian (Christakou et al., "Efficient computation of
sensitivity coefficients of node voltages and line currents in unbalanced
radial electrical distribution networks", IEEE Trans. Smart Grid 4(2),
2013). One dense solve ``J X = -I / base_kva`` gives the change of every
non-slack angle and voltage magnitude per kW (kVAr) of demand at every
non-slack node; the chain rule through the complex bus voltages carries it
to line current magnitudes and to the slack's apparent power. The slack
voltage is not a state, so its rows are exactly zero. Coefficients are
stored per kW (per kVAr) of demand increase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SensitivityError
from .loadflow import MISMATCH_TOL_PU, OperatingPoint, jacobian
from .network import BusNetwork


@dataclass(frozen=True)
class SensitivityCoefficients:
    """Partial derivatives at a linearization point.

    Shapes: voltage blocks are (n_buses, n_nodes), current blocks
    (n_lines, n_nodes), slack blocks (n_nodes,), where nodes are the
    non-slack buses in network order. Units: pu/kW, A/kW, kVA/kW and the
    kVAr analogues.
    """

    node_ids: tuple[int, ...]
    dv_dp: np.ndarray
    dv_dq: np.ndarray
    di_dp: np.ndarray
    di_dq: np.ndarray
    ds0_dp: np.ndarray
    ds0_dq: np.ndarray
    point: OperatingPoint

    def __post_init__(self):
        for arr in (self.dv_dp, self.dv_dq, self.di_dp, self.di_dq, self.ds0_dp, self.ds0_dq):
            if not np.all(np.isfinite(arr)):
                raise SensitivityError("non-finite sensitivity coefficient")


def _magnitude_derivative(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """d|z| = Re(conj(z) dz) / |z| along the last axis of ``dz``.

    |z| has no derivative at zero; where |z| is below the load-flow
    tolerance the row is zero, which is what a central difference reads.
    """
    mag = np.abs(z)
    phase = np.divide(np.conj(z), mag, out=np.zeros_like(z), where=mag >= MISMATCH_TOL_PU)
    return (phase[..., None] * dz).real


def compute_sensitivities(network: BusNetwork, point: OperatingPoint) -> SensitivityCoefficients:
    """Exact coefficients at ``point``; raises SensitivityError when the
    load-flow Jacobian there is singular."""
    node_ids = tuple(network.node_ids)
    m = len(node_ids)
    pq = network.node_bus
    sl = network.slack_index
    ybus = network.admittance
    v = point.voltage_pu * np.exp(1j * point.angle_rad)

    # Columns: demand P at each node (per kW), then Q (per kVAr). Rows:
    # angles, then magnitudes. Demand enters the mismatch with a minus sign,
    # and dV = V (j d(angle) + d|V| / |V|).
    try:
        x = np.linalg.solve(jacobian(ybus, v, pq), -np.eye(2 * m) / network.base_kva)
    except np.linalg.LinAlgError as exc:
        raise SensitivityError(f"singular load-flow Jacobian: {exc}") from exc
    dv = np.zeros((network.n_buses, 2 * m), dtype=complex)
    dv[pq] = v[pq, None] * (1j * x[:m] + x[m:] / point.voltage_pu[pq, None])

    dvm = _magnitude_derivative(v, dv)
    c = network.line_currents
    di = _magnitude_derivative(c @ v, c @ dv) * network.i_base_a
    s_slack = v[sl] * np.conj(ybus[sl] @ v)
    ds0 = _magnitude_derivative(s_slack, v[sl] * np.conj(ybus[sl] @ dv)) * network.base_kva

    return SensitivityCoefficients(
        node_ids=node_ids,
        dv_dp=dvm[:, :m],
        dv_dq=dvm[:, m:],
        di_dp=di[:, :m],
        di_dq=di[:, m:],
        ds0_dp=ds0[:m],
        ds0_dq=ds0[m:],
        point=point,
    )
