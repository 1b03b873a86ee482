"""Solver-agnostic MILP container: indexed columns, sparse rows, objective.

Columns are created through named families (e.g. ``fast_charge`` shaped
(V, T)), which keeps the mapping between matrix indices and planning
quantities bijective in both directions. Rows arrive as blocks: a block's
coefficients are COO arrays (row within the block, column, value), and
``freeze`` concatenates the blocks into one CSR matrix. Models are mutable
while being assembled and immutable once frozen.

The blocks are kept compact until then. ``add_rows`` stores a block's
global row and column indices as int32, the index dtype scipy gives ``A``
anyway, and as int64 only once a dimension passes 2**31 - 1. ``freeze``
empties each list of block arrays as soon as it has concatenated it, so
the blocks of one part are freed before the next part is copied. The
build of a 50-vehicle plan model peaks at about twice the frozen model's
memory under tracemalloc, against 4.4 times with int64 blocks that all
lived through the conversion.

Every block of columns or rows carries one label record instead of a name
and a meta per entry: ``Family`` for ``add_family``, ``Labels`` (or one of
the builder's own records) for ``add_rows``, and ``Literal`` for
``add_column`` and ``add_row``. A record has a ``size`` and renders its
entries' ``names()`` and ``metas()`` only when asked. No solve reads a
name: a 50-vehicle plan model holds about 22,400 rows and columns in 13
column and 31-33 row records. ``col_names``, ``col_meta``, ``row_names``
and ``row_meta`` are rendered on first read and cached; ``check_point``
and the ``BuildError`` messages read them only when they have a violation
to print; and ``mps_io`` writes the ``.columns.json`` sidecar from the
records, one formatted string per entry.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

from .errors import BuildError

BINARY = "B"
CONTINUOUS = "C"

SENSE_LE = "L"
SENSE_GE = "G"
SENSE_EQ = "E"

CHECK_TOL = 1e-6  # check_point's tolerance on bounds, rows and integrality
INT32_MAX = np.iinfo(np.int32).max


def _drain(parts: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    """The concatenation of ``parts`` (``empty`` when there are none),
    leaving ``parts`` empty."""
    out = np.concatenate(parts) if parts else empty
    parts.clear()
    return out


class Family:
    """Columns ``family[i_j]`` with metas ``(family, (i, j))``, one per
    position of ``shape`` in C order."""

    def __init__(self, family: str, shape: tuple[int, ...]):
        self.family, self.shape = family, tuple(shape)
        self.size = math.prod(self.shape)

    def positions(self, text: bool = False):
        """Each entry's position tuple in C order, of ints or (``text``)
        of their decimal strings."""
        axes = [range(k) for k in self.shape]
        return itertools.product(*([list(map(str, a)) for a in axes] if text else axes))

    def names(self, escape=str) -> list[str]:
        """The entries' names; ``escape`` is applied to the family name."""
        head = escape(self.family) + "["
        return [head + "_".join(p) + "]" for p in self.positions(text=True)]

    def metas(self) -> list[tuple]:
        return [(self.family, p) for p in self.positions()]


class Labels:
    """Rows ``name[i,j]`` with metas ``(tag, i, j)``: for each index tuple
    in turn, one row per entry of ``names`` (tags default to the names).
    ``index`` holds one integer sequence per position of the tuples."""

    def __init__(self, names, index, tags=None):
        self.labels = tuple(names)
        self.tags = tuple(tags or names)
        self.index = [np.asarray(a).tolist() for a in index]
        self.size = len(self.labels) * len(self.index[0])

    def names(self, escape=str) -> list[str]:
        """The entries' names; ``escape`` is applied to each label name."""
        heads = [escape(n) + "[" for n in self.labels]
        tails = [",".join(map(str, ix)) + "]" for ix in zip(*self.index)]
        return [h + t for t in tails for h in heads]

    def metas(self) -> list[tuple]:
        return [(g, *ix) for ix in zip(*self.index) for g in self.tags]


class Literal:
    """One column or row with its own name and meta."""

    size = 1

    def __init__(self, label: str, meta: tuple = ()):
        self.label, self.meta = label, meta

    def names(self, escape=str) -> list[str]:
        return [escape(self.label)]

    def metas(self) -> list[tuple]:
        return [self.meta]


class MilpModel:
    def __init__(self):
        self._frozen = False
        # One label record and one kind per column block, one label
        # record per row block.
        self.col_labels: list = []
        self._col_kinds: list[str] = []
        self.row_labels: list = []
        self.n_cols = self.n_rows = 0
        self._rendered: dict[str, list] = {}
        self._lb = np.zeros(0)
        self._ub = np.zeros(0)
        self._obj = np.zeros(0)
        self.row_sense: list[str] = []
        # Per add_rows call, one array in each list: the block's global
        # rows, its columns, its values and its right-hand sides.
        self._blocks: tuple[list[np.ndarray], ...] = ([], [], [], [])
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

    def _add_columns(self, labels, kind, lb, ub, obj) -> np.ndarray:
        self._check_mutable()
        n = labels.size
        lb, ub, obj = (np.full(n, a, dtype=float) for a in (lb, ub, obj))
        bad = np.flatnonzero((lb != 0.0) | (ub != 1.0)) if kind == BINARY else []
        if len(bad):
            raise BuildError(f"binary column {labels.names()[bad[0]]} must have bounds [0, 1]")
        j0 = self.n_cols
        self.col_labels.append(labels)
        self._col_kinds.append(kind)
        self.n_cols += n
        self._rendered.clear()
        self._lb = np.concatenate([self._lb, lb])
        self._ub = np.concatenate([self._ub, ub])
        self._obj = np.concatenate([self._obj, obj])
        return np.arange(j0, j0 + n)

    def add_column(self, name, kind, lb, ub, obj=0.0, meta=()) -> int:
        return int(self._add_columns(Literal(name, meta), kind, lb, ub, obj)[0])

    def add_family(self, family: str, shape: tuple[int, ...], kind: str,
                   lb=0.0, ub=1.0) -> np.ndarray:
        """Allocate a block of columns named ``family[i_j]``; returns their
        indices shaped ``shape``. ``lb``/``ub`` are one value, or one per
        column in C order."""
        self._check_mutable()
        if family in self._families:
            raise BuildError(f"family {family} added twice")
        idx = self._add_columns(
            Family(family, shape), kind, np.ravel(lb), np.ravel(ub), 0.0
        ).reshape(shape)
        self._families[family] = idx
        return idx

    def add_rows(self, labels, rows, cols, vals, sense, rhs) -> np.ndarray:
        """Append ``labels.size`` rows, labelled by the record ``labels``,
        from COO arrays; ``rows`` counts from 0 within the block. Zero
        values are dropped and duplicates summed. ``sense`` and ``rhs`` are
        one value for every row or one per row. Returns the new rows'
        indices."""
        self._check_mutable()
        n = labels.size
        senses = [sense] * n if isinstance(sense, str) else list(sense)
        if not set(senses) <= {SENSE_LE, SENSE_GE, SENSE_EQ}:
            raise BuildError(f"unknown sense in {sorted(set(senses))!r}")
        rows, cols = (np.asarray(a, dtype=np.int64).ravel() for a in (rows, cols))
        vals = np.asarray(vals, dtype=float).ravel()
        if np.any((rows < 0) | (rows >= n)):
            raise BuildError(f"block of {n} rows has entries outside it")
        bad = np.flatnonzero((cols < 0) | (cols >= self.n_cols))
        if bad.size:
            raise BuildError(f"row {labels.names()[rows[bad[0]]]} references undefined column {cols[bad[0]]}")
        keep = vals != 0.0
        r0 = self.n_rows
        idx = np.int32 if max(r0 + n, self.n_cols) <= INT32_MAX else np.int64
        block = ((rows[keep] + r0).astype(idx), cols[keep].astype(idx), vals[keep],
                 np.full(n, rhs, dtype=float))
        for parts, a in zip(self._blocks, block):
            parts.append(a)
        self.row_labels.append(labels)
        self.n_rows += n
        self._rendered.clear()
        self.row_sense += senses
        return np.arange(r0, r0 + n)

    def add_row(self, name, coeffs, sense, rhs, meta=()) -> int:
        """coeffs: iterable of (column, value); duplicates are summed."""
        pairs = list(coeffs)
        cols = [j for j, _ in pairs]
        vals = [a for _, a in pairs]
        return int(self.add_rows(Literal(name, meta), np.zeros(len(pairs), dtype=int), cols, vals, sense, rhs)[0])

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
        n, m = self.n_cols, self.n_rows
        empty = (np.zeros(0, dtype=np.int32),) * 2 + (np.zeros(0),) * 2
        r, c, v, rhs = (_drain(parts, e) for parts, e in zip(self._blocks, empty))
        self.A = sp.coo_matrix((v, (r, c)), shape=(m, n)).tocsr()  # sums duplicates
        self.lb = self._lb
        self.ub = self._ub
        self.obj = self._obj
        self.rhs = rhs
        self.is_int = np.repeat(np.array([k == BINARY for k in self._col_kinds], dtype=bool),
                                np.array([rec.size for rec in self.col_labels], dtype=np.int64))
        self._frozen = True
        return self

    # -- labels ----------------------------------------------------------

    def _render(self, key: str, records, method: str) -> list:
        if key not in self._rendered:
            self._rendered[key] = [x for rec in records for x in getattr(rec, method)()]
        return self._rendered[key]

    @property
    def col_names(self) -> list[str]:
        """Every column's name, rendered from the label records on first read."""
        return self._render("col_names", self.col_labels, "names")

    @property
    def col_meta(self) -> list[tuple]:
        return self._render("col_meta", self.col_labels, "metas")

    @property
    def row_names(self) -> list[str]:
        return self._render("row_names", self.row_labels, "names")

    @property
    def row_meta(self) -> list[tuple]:
        return self._render("row_meta", self.row_labels, "metas")

    # -- queries ---------------------------------------------------------

    @property
    def n_binary(self) -> int:
        return sum(rec.size for rec, k in zip(self.col_labels, self._col_kinds) if k == BINARY)

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
