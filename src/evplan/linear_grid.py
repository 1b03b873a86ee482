"""Linearized operating constraints built from sensitivity coefficients.

Every constraint is canonicalized as

    sum_m p_coef[m] * dP_m + sum_m q_coef[m] * dQ_m  <=  rhs

where (dP, dQ) are demand increments in kW/kVAr at the non-slack nodes,
relative to the linearization point. The base-point value is folded into
``rhs``, so a zero increment satisfies every row of a feasible point. One
linearization point gives one ``GridRows`` block: the rows' coefficients
as two (rows x nodes) matrices and their right-hand sides as a vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBasePointError, ParameterError
from .network import BusNetwork
from .sensitivity import SensitivityCoefficients

BASE_POINT_TOL = 1e-9


@dataclass(frozen=True)
class GridLimits:
    v_min_pu: float = 0.97
    v_max_pu: float = 1.03

    def __post_init__(self):
        if not (0 < self.v_min_pu < np.inf and 0 < self.v_max_pu < np.inf):
            raise ParameterError("voltage limits must be positive and finite")
        if self.v_min_pu >= self.v_max_pu:
            raise ParameterError("lower voltage limit must be below the upper one")


@dataclass(frozen=True)
class GridRows:
    """Rows ``p_coef @ dP + q_coef @ dQ <= rhs`` of one linearization point.

    ``kind[r]`` is v_lo / v_hi / i_hi / s0_hi / box_lo / box_hi and
    ``subject[r]`` the bus id or line index the row limits. ``p_coef`` and
    ``q_coef`` are (rows, nodes), ``rhs`` is (rows,).
    """

    kind: list[str]
    subject: np.ndarray
    p_coef: np.ndarray
    q_coef: np.ndarray
    rhs: np.ndarray

    def __len__(self) -> int:
        return len(self.rhs)


def apparent_power_box(rating_kva: float, cos_phi_lb: float) -> tuple[float, float]:
    """Linear active-power bounds implied by a nodal apparent-power limit.

    Bounding the reactive power by rating * sin(phi) leaves |P| <= rating *
    cos(phi), which is conservative w.r.t. the original quadratic limit.
    """
    if rating_kva <= 0:
        raise ParameterError("node rating must be positive")
    if not 0 < cos_phi_lb <= 1:
        raise ParameterError("power factor lower bound must lie in (0, 1]")
    bound = rating_kva * cos_phi_lb
    return -bound, bound


def _pairs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Interleave two row stacks: lo[0], hi[0], lo[1], hi[1], ..."""
    return np.stack([lo, hi], axis=1).reshape(-1, *lo.shape[1:])


def linear_grid_constraints(
    sens: SensitivityCoefficients,
    network: BusNetwork,
    limits: GridLimits,
) -> GridRows:
    """Rows for one linearization point, ordered voltage rows (lo, hi per
    node), current rows, slack row, then box rows (lo, hi per rated node).

    Raises InfeasibleBasePointError when the point itself violates a limit.
    """
    point = sens.point
    nodes = np.array(network.node_ids, dtype=int)
    bus = network.node_bus
    rated = np.array([k for k, i in enumerate(bus) if network.buses[i].rating_kva is not None], dtype=int)
    lo, hi = np.array(
        [apparent_power_box(network.buses[i].rating_kva, network.buses[i].power_factor) for i in bus[rated]]
    ).reshape(-1, 2).T
    # lo <= p0 + dP_n <= hi at each rated node n.
    p0 = point.p_kw[bus[rated]]
    unit = np.eye(len(nodes))[rated]

    def coefficients(dv, di, ds0, box):
        # v_lo:  v_min <= v0 + dv . d  ->  -dv . d <= v0 - v_min
        return np.concatenate([_pairs(-dv[bus], dv[bus]), di, ds0[None], _pairs(-box, box)])

    v0 = point.voltage_pu[bus]
    rows = GridRows(
        kind=["v_lo", "v_hi"] * len(nodes) + ["i_hi"] * network.n_lines + ["s0_hi"]
        + ["box_lo", "box_hi"] * len(rated),
        subject=np.concatenate(
            [np.repeat(nodes, 2), np.arange(network.n_lines), [network.slack_bus], np.repeat(nodes[rated], 2)]
        ),
        p_coef=coefficients(sens.dv_dp, sens.di_dp, sens.ds0_dp, unit),
        q_coef=coefficients(sens.dv_dq, sens.di_dq, sens.ds0_dq, np.zeros_like(unit)),
        rhs=np.concatenate([
            _pairs(v0 - limits.v_min_pu, limits.v_max_pu - v0),
            network.ampacity_a - point.current_a,
            [network.transformer_kva - point.slack_kva],
            _pairs(p0 - lo, hi - p0),
        ]),
    )
    bad = np.flatnonzero(rows.rhs < -BASE_POINT_TOL)
    if bad.size:
        raise InfeasibleBasePointError(
            f"linearization point violates {bad.size} operating limit(s)",
            violations=[(rows.kind[r], int(rows.subject[r]), float(rows.rhs[r])) for r in bad],
        )
    return rows
