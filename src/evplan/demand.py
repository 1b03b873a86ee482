"""Net demand profiles (conventional load minus local generation) per node.

CSV interchange: header ``node,t0,...,t{T-1}``, active power in kW. Reactive
power is derived from the nodal power factors unless a companion ``*_q.csv``
file provides it explicitly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, malformed_input
from .network import BusNetwork


@dataclass(frozen=True)
class NetDemandProfile:
    node_ids: tuple[int, ...]
    p_kw: np.ndarray  # (n_nodes, T)
    q_kvar: np.ndarray  # (n_nodes, T)

    def __post_init__(self):
        if self.p_kw.shape != self.q_kvar.shape:
            raise ParameterError("P and Q profiles must have identical shape")
        if self.p_kw.shape[0] != len(self.node_ids):
            raise ParameterError("profile rows do not match node list")

    @property
    def horizon(self) -> int:
        return self.p_kw.shape[1]

    def row(self, node_id: int) -> int:
        return self.node_ids.index(node_id)

    def active(self, node_id: int) -> np.ndarray:
        """Active power at ``node_id`` per interval: zero at a node the
        profile omits, as ``demand_at`` reads it."""
        if node_id not in self.node_ids:
            return np.zeros(self.horizon)
        return self.p_kw[self.row(node_id)]

    def demand_at(self, network: BusNetwork, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-bus arrays (network order) for one interval."""
        p = np.zeros(network.n_buses)
        q = np.zeros(network.n_buses)
        for r, node in enumerate(self.node_ids):
            i = network.bus_index(node)
            p[i] = self.p_kw[r, t]
            q[i] = self.q_kvar[r, t]
        return p, q


def load_demand(path: str | Path, network: BusNetwork) -> NetDemandProfile:
    path = Path(path)
    nodes, p = _read_profile_csv(path)
    for node in nodes:
        if node not in network._index:
            raise ParameterError(f"demand row references unknown node {node}")
    q_path = path.with_name(path.stem + "_q" + path.suffix)
    if q_path.exists():
        q_nodes, q = _read_profile_csv(q_path)
        if q_nodes != nodes or q.shape != p.shape:
            raise ParameterError("reactive profile does not match the active one")
    else:
        q = np.zeros_like(p)
        for r, node in enumerate(nodes):
            bus = network.buses[network.bus_index(node)]
            if np.allclose(p[r], 0.0):
                continue
            if bus.power_factor is None:
                raise ParameterError(
                    f"node {node} has demand but no power factor and no *_q.csv"
                )
            q[r] = p[r] * np.tan(np.arccos(bus.power_factor))
    return NetDemandProfile(node_ids=tuple(nodes), p_kw=p, q_kvar=q)


def _read_profile_csv(path: Path) -> tuple[list[int], np.ndarray]:
    with malformed_input(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[0] != "node":
            raise ParameterError("first header column must be 'node'")
        expected = [f"t{i}" for i in range(len(header) - 1)]
        if header[1:] != expected:
            raise ParameterError(f"time columns must be t0..t{len(header) - 2}")
        nodes: list[int] = []
        rows: list[list[float]] = []
        for rec in reader:
            if not rec:
                continue
            node = int(rec[0])
            if node in nodes:
                raise ParameterError(f"node {node} is listed twice")
            nodes.append(node)
            rows.append([float(x) for x in rec[1:]])
            if not np.isfinite(rows[-1]).all():
                raise ParameterError(f"node {nodes[-1]}: demand must be finite")
    if not rows:
        raise ParameterError(f"{path}: no demand rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParameterError(f"{path}: inconsistent row lengths")
    return nodes, np.asarray(rows)


def dump_demand(profile: NetDemandProfile, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node"] + [f"t{i}" for i in range(profile.horizon)])
        for r, node in enumerate(profile.node_ids):
            writer.writerow([node] + [f"{x:.6f}" for x in profile.p_kw[r]])
