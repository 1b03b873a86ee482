"""Solver-agnostic MILP container: indexed columns, sparse rows, objective.

Columns are created through named families (e.g. ``fast_charge`` shaped
(V, T)), which keeps the mapping between matrix indices and planning
quantities bijective in both directions. Rows arrive as blocks: a block's
coefficients are COO arrays (row within the block, column, value), and
``freeze`` concatenates the blocks into one CSR matrix. Models are mutable
while being assembled and immutable once frozen.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import BuildError

BINARY = "B"
CONTINUOUS = "C"

SENSE_LE = "L"
SENSE_GE = "G"
SENSE_EQ = "E"

CHECK_TOL = 1e-6  # check_point's tolerance on bounds, rows and integrality


class MilpModel:
    def __init__(self):
        self._frozen = False
        self.col_names: list[str] = []
        self.col_kind: list[str] = []
        self._lb = np.zeros(0)
        self._ub = np.zeros(0)
        self._obj = np.zeros(0)
        self.col_meta: list[tuple] = []
        self.row_names: list[str] = []
        self.row_sense: list[str] = []
        self.row_meta: list[tuple] = []
        # One (rows, cols, vals, rhs) block per add_rows call, rows global.
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._families: dict[str, np.ndarray] = {}
        # Frozen arrays
        self.A: sp.csr_matrix | None = None
        self.lb: np.ndarray | None = None
        self.ub: np.ndarray | None = None
        self.obj: np.ndarray | None = None
        self.rhs: np.ndarray | None = None
        self.is_int: np.ndarray | None = None

    # -- assembly ------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise BuildError("model is frozen")

    def _add_columns(self, names, kind, lb, ub, obj, metas) -> np.ndarray:
        self._check_mutable()
        n = len(names)
        lb, ub, obj = (np.full(n, a, dtype=float) for a in (lb, ub, obj))
        bad = np.flatnonzero((lb != 0.0) | (ub != 1.0)) if kind == BINARY else []
        if len(bad):
            raise BuildError(f"binary column {names[bad[0]]} must have bounds [0, 1]")
        j0 = self.n_cols
        self.col_names += names
        self.col_kind += [kind] * n
        self.col_meta += metas
        self._lb = np.concatenate([self._lb, lb])
        self._ub = np.concatenate([self._ub, ub])
        self._obj = np.concatenate([self._obj, obj])
        return np.arange(j0, j0 + n)

    def add_column(self, name, kind, lb, ub, obj=0.0, meta=()) -> int:
        return int(self._add_columns([name], kind, lb, ub, obj, [meta])[0])

    def add_family(self, family: str, shape: tuple[int, ...], kind: str,
                   lb=0.0, ub=1.0) -> np.ndarray:
        """Allocate a block of columns named ``family[i_j]``; returns their
        indices shaped ``shape``. ``lb``/``ub`` are one value, or one per
        column in C order."""
        self._check_mutable()
        if family in self._families:
            raise BuildError(f"family {family} added twice")
        pos = list(np.ndindex(*shape))
        idx = self._add_columns(
            [f"{family}[{'_'.join(map(str, p))}]" for p in pos], kind,
            np.ravel(lb), np.ravel(ub), 0.0,
            [(family, p) for p in pos],
        ).reshape(shape)
        self._families[family] = idx
        return idx

    def add_rows(self, names, rows, cols, vals, sense, rhs, metas) -> np.ndarray:
        """Append ``len(names)`` rows from COO arrays; ``rows`` counts from 0
        within the block. Zero values are dropped and duplicates summed.
        ``sense`` and ``rhs`` are one value for every row or one per row.
        Returns the new rows' indices."""
        self._check_mutable()
        n = len(names)
        senses = [sense] * n if isinstance(sense, str) else list(sense)
        if not set(senses) <= {SENSE_LE, SENSE_GE, SENSE_EQ}:
            raise BuildError(f"unknown sense in {sorted(set(senses))!r}")
        rows, cols = (np.asarray(a, dtype=np.int64).ravel() for a in (rows, cols))
        vals = np.asarray(vals, dtype=float).ravel()
        if np.any((rows < 0) | (rows >= n)):
            raise BuildError(f"block of {n} rows has entries outside it")
        bad = np.flatnonzero((cols < 0) | (cols >= self.n_cols))
        if bad.size:
            raise BuildError(f"row {names[rows[bad[0]]]} references undefined column {cols[bad[0]]}")
        keep = vals != 0.0
        r0 = self.n_rows
        self._blocks.append(
            (rows[keep] + r0, cols[keep], vals[keep], np.full(n, rhs, dtype=float))
        )
        self.row_names += names
        self.row_sense += senses
        self.row_meta += metas
        return np.arange(r0, r0 + n)

    def add_row(self, name, coeffs, sense, rhs, meta=()) -> int:
        """coeffs: iterable of (column, value); duplicates are summed."""
        pairs = list(coeffs)
        cols = [j for j, _ in pairs]
        vals = [a for _, a in pairs]
        return int(self.add_rows([name], np.zeros(len(pairs), dtype=int), cols, vals, sense, rhs, [meta])[0])

    def set_objective(self, cols, vals):
        """Objective coefficients ``vals`` (one value or one per column) on
        the columns ``cols``."""
        self._check_mutable()
        self._obj[cols] = vals

    def set_bounds(self, cols, lb: float, ub: float):
        """Bounds [lb, ub] on the columns ``cols`` (an index or an index array)."""
        self._check_mutable()
        if lb > ub:
            raise BuildError(f"lb {lb} > ub {ub}")
        self._lb[cols] = lb
        self._ub[cols] = ub

    def freeze(self) -> "MilpModel":
        self._check_mutable()
        n, m = len(self.col_names), len(self.row_names)
        empty = (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 2
        r, c, v, rhs = (np.concatenate(parts) for parts in zip(empty, *self._blocks))
        self.A = sp.coo_matrix((v, (r, c)), shape=(m, n)).tocsr()  # sums duplicates
        self.lb = self._lb
        self.ub = self._ub
        self.obj = self._obj
        self.rhs = rhs
        self.is_int = np.asarray([k == BINARY for k in self.col_kind])
        self._blocks = []
        self._frozen = True
        return self

    # -- queries ---------------------------------------------------------

    @property
    def n_cols(self) -> int:
        return len(self.col_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def n_binary(self) -> int:
        return sum(1 for k in self.col_kind if k == BINARY)

    def family(self, name: str) -> np.ndarray:
        return self._families[name]

    def column_of(self, family: str, *pos) -> int:
        return int(self._families[family][pos])

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.obj @ x)

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x

    def check_point(self, x: np.ndarray) -> list[str]:
        """Non-finite entries and constraint/bound/integrality violations of
        a full assignment, each beyond ``CHECK_TOL``."""
        issues = [
            f"column {self.col_names[j]} = {x[j]:.6g} not finite"
            for j in np.flatnonzero(~np.isfinite(x))
        ]
        issues += [
            f"column {self.col_names[j]} = {x[j]:.6g} outside bounds"
            for j in np.flatnonzero((x < self.lb - CHECK_TOL) | (x > self.ub + CHECK_TOL))
        ]
        act = self.row_activity(x)
        sense = np.asarray(self.row_sense)
        bad = (
            ((sense == SENSE_LE) & (act > self.rhs + CHECK_TOL))
            | ((sense == SENSE_GE) & (act < self.rhs - CHECK_TOL))
            | ((sense == SENSE_EQ) & (np.abs(act - self.rhs) > CHECK_TOL))
        )
        issues += [
            f"row {self.row_names[r]}: activity {act[r]:.6g} {self.row_sense[r]} {self.rhs[r]:.6g} violated"
            for r in np.flatnonzero(bad)
        ]
        frac = np.abs(x - np.round(x))
        issues += [
            f"column {self.col_names[j]} = {x[j]:.6g} not integral"
            for j in np.flatnonzero(self.is_int & (frac > CHECK_TOL))
        ]
        return issues
