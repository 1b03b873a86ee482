"""Medium-voltage grid model: buses, lines, per-unit bases and the grid
matrices the load flow and the sensitivities share.

Injections are demand-positive throughout the package: a positive nodal
power means the node draws power from the grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParameterError, SingularLineError, TopologyError, malformed_input


@dataclass(frozen=True)
class Bus:
    id: int
    base_kv: float
    rating_kva: float | None = None  # MV/LV substation rating, None = unrated
    power_factor: float | None = None  # load power factor at the node
    cluster: int | None = None  # EV-hosting cluster tag (1, 2, ...)


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r_ohm: float
    x_ohm: float
    b_s: float = 0.0  # total shunt susceptance, siemens
    ampacity_a: float = float("inf")

    def name(self) -> str:
        return f"{self.from_bus}-{self.to_bus}"


@dataclass(frozen=True)
class BusNetwork:
    """Connected single-slack grid with per-unit bases.

    ``base_kva``/``base_kv`` define the per-unit system (base kVA equals the
    substation transformer rating). ``transformer_kva`` is the apparent power
    limit enforced on the slack exchange.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    slack_bus: int
    slack_voltage_pu: float
    transformer_kva: float
    base_kva: float
    base_kv: float
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ParameterError("duplicate bus ids")
        object.__setattr__(self, "_index", {b.id: i for i, b in enumerate(self.buses)})
        if self.slack_bus not in self._index:
            raise TopologyError(f"slack bus {self.slack_bus} not among buses")
        if not all(0 < x < np.inf for x in (self.transformer_kva, self.base_kva, self.base_kv)):
            raise ParameterError("bases and transformer rating must be positive and finite")
        if not 0 < self.slack_voltage_pu < np.inf:
            raise ParameterError("slack voltage must be positive and finite")
        for b in self.buses:
            if b.rating_kva is not None and not 0 < b.rating_kva < np.inf:
                raise ParameterError(f"bus {b.id}: rating must be positive and finite when given")
            if b.power_factor is not None and not 0 < b.power_factor <= 1:
                raise ParameterError(f"bus {b.id}: power factor outside (0, 1]")
        for ln in self.lines:
            if ln.from_bus not in self._index or ln.to_bus not in self._index:
                raise TopologyError(f"line {ln.name()} references unknown bus")
            if not np.isfinite([ln.r_ohm, ln.x_ohm, ln.b_s]).all():
                raise ParameterError(f"line {ln.name()}: impedance must be finite")
            if not ln.ampacity_a > 0:  # inf: no limit
                raise ParameterError(f"line {ln.name()}: ampacity must be positive")
        self._check_connected()

    def _check_connected(self):
        n = len(self.buses)
        adj = [[] for _ in range(n)]
        for ln in self.lines:
            a, b = self._index[ln.from_bus], self._index[ln.to_bus]
            adj[a].append(b)
            adj[b].append(a)
        seen = {self._index[self.slack_bus]}
        stack = [self._index[self.slack_bus]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != n:
            missing = [b.id for b in self.buses if self._index[b.id] not in seen]
            raise TopologyError(f"grid is not connected; unreachable buses: {missing}")

    # -- index helpers -------------------------------------------------

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def bus_index(self, bus_id: int) -> int:
        return self._index[bus_id]

    @property
    def slack_index(self) -> int:
        return self._index[self.slack_bus]

    @property
    def node_ids(self) -> list[int]:
        """Non-slack bus ids in file order (the planning nodes)."""
        return [b.id for b in self.buses if b.id != self.slack_bus]

    def cluster_nodes(self, tag: int) -> list[int]:
        return [b.id for b in self.buses if b.cluster == tag]

    # -- per-unit bases ------------------------------------------------

    @property
    def z_base_ohm(self) -> float:
        return 1000.0 * self.base_kv**2 / self.base_kva

    @property
    def i_base_a(self) -> float:
        return self.base_kva / (np.sqrt(3.0) * self.base_kv)

    # -- grid constants, built once at first use (read-only) ------------

    @cached_property
    def node_bus(self) -> np.ndarray:
        """Bus indices of ``node_ids``: the load flow's PQ buses."""
        return _read_only(np.array([self._index[b] for b in self.node_ids], dtype=int))

    @cached_property
    def ampacity_a(self) -> np.ndarray:
        """Line current limits in amperes, in line order."""
        return _read_only(np.array([ln.ampacity_a for ln in self.lines]))

    @property
    def admittance(self) -> np.ndarray:
        """(n_buses, n_buses) node admittance matrix, per-unit."""
        return self._matrices[0]

    @property
    def line_currents(self) -> np.ndarray:
        """(n_lines, n_buses) per-unit map from bus voltage phasors to
        sending-end line current phasors. Being linear, it also maps voltage
        derivatives to current derivatives."""
        return self._matrices[1]

    @cached_property
    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        y, c = self._build_matrices()
        return _read_only(y), _read_only(c)

    def _build_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Admittance matrix and line-current map of the pi line model:
        series admittance 1/z plus half the shunt susceptance at each end.
        Raises SingularLineError for a line of zero series impedance."""
        n = self.n_buses
        y = np.zeros((n, n), dtype=complex)
        c = np.zeros((self.n_lines, n), dtype=complex)
        z_base = self.z_base_ohm
        for k, ln in enumerate(self.lines):
            z_pu = (ln.r_ohm + 1j * ln.x_ohm) / z_base
            if abs(z_pu) == 0.0:
                raise SingularLineError(f"line {ln.name()} has zero series impedance")
            y_ser = 1.0 / z_pu
            y_sh_half = 0.5j * ln.b_s * z_base
            a, b = self._index[ln.from_bus], self._index[ln.to_bus]
            y[a, a] += y_ser + y_sh_half
            y[b, b] += y_ser + y_sh_half
            y[a, b] -= y_ser
            y[b, a] -= y_ser
            c[k, a] += y_ser + y_sh_half
            c[k, b] -= y_ser
        return y, c


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def load_network(path: str | Path) -> BusNetwork:
    """Read the grid JSON interchange format (see the bundled 14-bus file)."""
    with malformed_input(path):
        with open(path) as fh:
            doc = json.load(fh)
        buses = tuple(
            Bus(
                id=int(b["id"]),
                base_kv=float(b["base_kv"]),
                rating_kva=None if b.get("rating_kva") is None else float(b["rating_kva"]),
                power_factor=None if b.get("power_factor") is None else float(b["power_factor"]),
                cluster=None if b.get("cluster") is None else int(b["cluster"]),
            )
            for b in doc["buses"]
        )
        lines = tuple(
            Line(
                from_bus=int(l["from"]),
                to_bus=int(l["to"]),
                r_ohm=float(l["r_ohm"]),
                x_ohm=float(l["x_ohm"]),
                b_s=float(l.get("b_s", 0.0)),
                ampacity_a=float(l.get("ampacity_a", float("inf"))),
            )
            for l in doc["lines"]
        )
        return BusNetwork(
            buses=buses,
            lines=lines,
            slack_bus=int(doc["slack"]["bus"]),
            slack_voltage_pu=float(doc["slack"]["voltage_pu"]),
            transformer_kva=float(doc["transformer_kva"]),
            base_kva=float(doc["base_kva"]),
            base_kv=float(doc["base_kv"]),
        )


def dump_network(network: BusNetwork, path: str | Path) -> None:
    doc = {
        "base_kva": network.base_kva,
        "base_kv": network.base_kv,
        "transformer_kva": network.transformer_kva,
        "slack": {"bus": network.slack_bus, "voltage_pu": network.slack_voltage_pu},
        "buses": [
            {
                "id": b.id,
                "base_kv": b.base_kv,
                "rating_kva": b.rating_kva,
                "power_factor": b.power_factor,
                "cluster": b.cluster,
            }
            for b in network.buses
        ],
        "lines": [
            {
                "from": l.from_bus,
                "to": l.to_bus,
                "r_ohm": l.r_ohm,
                "x_ohm": l.x_ohm,
                "b_s": l.b_s,
                "ampacity_a": l.ampacity_a,
            }
            for l in network.lines
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
