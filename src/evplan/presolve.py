"""MILP presolve: bound propagation from row activities, column merging.

The commute structure makes large parts of the plan model mechanical: every
driving interval forces its plug/charge binaries to zero, the stiff-driver
rules collapse plug states to one value per parking block, and the
single-port tie rows identify plug counts with charger counts. Each pass
below discovers all of that generically:

 * fixed columns are substituted into the right-hand sides,
 * one propagation sweep tightens every column to the slack its rows'
   other columns leave (integer bounds get rounded); a one-column row is
   the plain case of this and a forcing row (activity already at the rhs)
   the extreme one, and rows that every bound satisfies are dropped,
 * two-column rows ``a x - a y (=|>=|<=) 0`` yield merges or implications
   (a pair of opposite implications is also a merge),
 * zero-cost columns appearing in a single row are removed when the row is
   satisfiable for any value of the remaining variables,
 * empty columns move to their cheapest bound.

A merged or removed column is retired by emptying its member list; the
merge target or the removal record carries its original columns. Postsolve
replays the recorded transforms to recover a full assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, copysign, floor, inf, isfinite

import numpy as np
import scipy.sparse as sp

from .milp import SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel

FEAS_TOL = 1e-9
MAX_PASSES = 30


def _integral(rounding, v: float) -> float:
    """``rounding`` (``round``, ``floor`` or ``ceil``) of ``v`` as
    the float numpy's scalar rounding gives: the sign of ``v`` is kept on a
    zero result (-0.3 rounds to -0.0) and non-finite values pass through."""
    return copysign(rounding(v), v) if isfinite(v) else v


@dataclass
class ReducedModel:
    A: sp.csr_matrix
    senses: list[str]
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    obj: np.ndarray
    is_int: np.ndarray
    obj_offset: float
    members: list[list[int]]  # reduced column -> original columns

    @property
    def n_cols(self):
        return self.A.shape[1]

    @property
    def n_rows(self):
        return self.A.shape[0]


@dataclass
class PresolveResult:
    status: str  # reduced | infeasible
    reduced: ReducedModel | None = None
    fixed: dict[int, float] = field(default_factory=dict)  # original col -> value
    singletons: list[tuple] = field(default_factory=list)
    n_original: int = 0

    def postsolve(self, x_reduced: np.ndarray) -> np.ndarray:
        """Expand a reduced-model assignment to the original columns."""
        x = np.zeros(self.n_original)
        for col, val in self.fixed.items():
            x[col] = val
        red = self.reduced
        if red is not None:
            for k, members in enumerate(red.members):
                for col in members:
                    x[col] = x_reduced[k]
        # Reverse order: a removed column may feed a row referenced by an
        # earlier removal.
        for cols, a, sense, rhs, others, lo, hi, integral in reversed(self.singletons):
            residual = rhs - sum(ak * x[ck] for ck, ak in others)
            if sense == SENSE_EQ:
                val = residual / a
            elif (sense == SENSE_GE) == (a > 0):
                val = max(lo, residual / a)  # need a*x >= residual
            else:
                val = min(hi, residual / a)
            if integral:
                val = _integral(round, val)
            x[cols] = min(max(val, lo), hi)
        return x


def presolve(model: MilpModel) -> PresolveResult:
    work = _Working.from_model(model)
    for _ in range(MAX_PASSES):
        changed = work.one_pass()
        if work.infeasible:
            return PresolveResult(status="infeasible", n_original=model.n_cols)
        if not changed:
            break
    reduced, fixed, singles = work.finish()
    return PresolveResult(
        status="reduced",
        reduced=reduced,
        fixed=fixed,
        singletons=singles,
        n_original=model.n_cols,
    )


class _Working:
    """Mutable presolve state over COO-style entry lists."""

    def __init__(self, rows, senses, rhs, lb, ub, obj, is_int, members):
        self.rows = rows  # list of dict col -> coef
        self.senses = senses
        self.rhs = rhs
        self.lb = lb
        self.ub = ub
        self.obj = obj
        self.is_int = is_int
        self.members = members
        self.obj_offset = 0.0
        self.fixed: dict[int, float] = {}
        self.singles: list[tuple] = []
        self.infeasible = False

    @classmethod
    def from_model(cls, model: MilpModel):
        A = model.A.tocsr()
        ptr = A.indptr.tolist()
        rows = [dict() for _ in range(model.n_rows)]
        # Row by row, so that only one row's entries exist as Python objects
        # besides the dicts being built.
        for r, row in enumerate(rows):
            lo, hi = ptr[r], ptr[r + 1]
            for c, v in zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist()):
                row[c] = row.get(c, 0.0) + v
        return cls(
            rows=rows,
            senses=list(model.row_sense),
            rhs=np.asarray(model.rhs, dtype=float).tolist(),
            lb=np.asarray(model.lb, dtype=float).tolist(),
            ub=np.asarray(model.ub, dtype=float).tolist(),
            obj=np.asarray(model.obj, dtype=float).tolist(),
            is_int=np.asarray(model.is_int, dtype=bool).tolist(),
            members=[[j] for j in range(model.n_cols)],
        )

    # -- helpers ---------------------------------------------------------

    def _fix(self, col, val):
        lo, hi = self.lb[col], self.ub[col]
        val = min(max(val, lo), hi)
        if self.is_int[col]:
            val = _integral(round, val)
        self.fixed[col] = val
        self.obj_offset += self.obj[col] * val
        self.lb[col] = self.ub[col] = val

    def _col_usage(self):
        usage: dict[int, list[int]] = {}
        for r, row in enumerate(self.rows):
            if row is None:
                continue
            for c in row:
                usage.setdefault(c, []).append(r)
        return usage

    def _min_max_activity(self, row):
        lo = hi = 0.0
        lb, ub = self.lb, self.ub
        for c, a in row.items():
            l, u = lb[c], ub[c]
            if a > 0:
                lo += a * l if isfinite(l) else -inf
                hi += a * u if isfinite(u) else inf
            else:
                lo += a * u if isfinite(u) else -inf
                hi += a * l if isfinite(l) else inf
        return lo, hi

    def _tighten(self, col, lo=None, hi=None) -> bool:
        changed = False
        if lo is not None and lo > self.lb[col] + FEAS_TOL:
            self.lb[col] = lo
            changed = True
        if hi is not None and hi < self.ub[col] - FEAS_TOL:
            self.ub[col] = hi
            changed = True
        if self.is_int[col] and changed:
            self.lb[col] = _integral(ceil, self.lb[col] - 1e-7)
            self.ub[col] = _integral(floor, self.ub[col] + 1e-7)
        if self.lb[col] > self.ub[col] + FEAS_TOL:
            self.infeasible = True
        return changed

    # -- one full pass -----------------------------------------------------

    def one_pass(self) -> bool:
        changed = self._substitute_fixed()
        changed |= self._propagate()
        if self.infeasible:
            return True
        changed |= self._substitute_fixed()
        changed |= self._merge_doubletons()
        changed |= self._drop_inert_singletons()
        changed |= self._fix_empty_columns()
        return changed

    def _substitute_fixed(self) -> bool:
        changed = False
        lb, ub = self.lb, self.ub
        for r, row in enumerate(self.rows):
            if row is None:
                continue
            hit = [c for c in row if lb[c] == ub[c]]
            for c in hit:
                self.rhs[r] -= row.pop(c) * lb[c]
                changed = True
        # Live columns not yet recorded as fixed (e.g. bounds collapsed by
        # tightening) get a fix record now.
        for c in range(len(self.lb)):
            if self.lb[c] == self.ub[c] and c not in self.fixed and self.members[c]:
                self._fix(c, self.lb[c])
                changed = True
        return changed

    def _propagate(self) -> bool:
        """Bound tightening from row activities, one sweep over the live rows.

        Each variable must fit in the slack the other variables leave at
        their loosest: the upper side of a <= or = row, the lower side of a
        >= or = row. A one-column row is a plain bound on its column and is
        dropped once applied; a forcing row (activity already at the rhs)
        pins every column to its extreme. This is also what eliminates
        equipment choices whose single use already overshoots a battery
        (one fast-charger hour on a small pack).
        """
        changed = False
        lb, ub = self.lb, self.ub
        for r, row in enumerate(self.rows):
            if row is None:
                continue
            sense, b = self.senses[r], self.rhs[r]
            lo, hi = self._min_max_activity(row)
            upper, lower = sense != SENSE_GE, sense != SENSE_LE
            if (upper and lo > b + FEAS_TOL) or (lower and hi < b - FEAS_TOL):
                self.infeasible = True
                return True
            if (not upper or hi <= b + FEAS_TOL) and (not lower or lo >= b - FEAS_TOL):
                self.rows[r] = None  # every bound satisfies it
                changed = True
                continue
            # The activities stay as computed above while the row's columns
            # move; each column's own term is read afresh.
            single = len(row) == 1
            if upper and (single or isfinite(lo)):
                for c, a in row.items():
                    rest = 0.0 if single else lo - (a * lb[c] if a > 0 else a * ub[c])
                    if a > 0:
                        changed |= self._tighten(c, hi=(b - rest) / a)
                    else:
                        changed |= self._tighten(c, lo=(b - rest) / a)
            if lower and (single or isfinite(hi)):
                for c, a in row.items():
                    rest = 0.0 if single else hi - (a * ub[c] if a > 0 else a * lb[c])
                    if a > 0:
                        changed |= self._tighten(c, lo=(b - rest) / a)
                    else:
                        changed |= self._tighten(c, hi=(b - rest) / a)
            if self.infeasible:
                return True
            if single:
                self.rows[r] = None
                changed = True
        return changed

    def _merge_doubletons(self) -> bool:
        # Collect x <= y implications from rows  a x - a y <= 0  (and the
        # symmetric forms); equalities merge immediately.
        parent = {}

        def find(a):
            root = a
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(a, a) != a:
                parent[a], a = root, parent[a]
            return root

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra == rb:
                return ra
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            return ra

        implications: dict[tuple[int, int], set[str]] = {}
        merge_rows = []
        for r, row in enumerate(self.rows):
            if row is None or len(row) != 2:
                continue
            if abs(self.rhs[r]) > FEAS_TOL:
                continue
            (c1, a1), (c2, a2) = row.items()
            if abs(a1 + a2) > 1e-12 * max(abs(a1), abs(a2)):
                continue
            pos, neg = (c1, c2) if a1 > 0 else (c2, c1)
            sense = self.senses[r]
            if sense == SENSE_EQ:
                union(pos, neg)
                merge_rows.append(r)
                continue
            # a*pos - a*neg <= 0  ->  pos <= neg ; >= 0 -> pos >= neg
            key = (min(pos, neg), max(pos, neg))
            direction = "le" if (sense == SENSE_LE) == (key[0] == pos) else "ge"
            implications.setdefault(key, set()).add((direction, r))
        for (p, q), tags in implications.items():
            dirs = {d for d, _ in tags}
            if {"le", "ge"} <= dirs:
                union(p, q)
                merge_rows.extend(r for _, r in tags)

        groups: dict[int, list[int]] = {}
        for c in set(parent):
            groups.setdefault(find(c), []).append(c)
        if not groups:
            return False
        for r in merge_rows:
            self.rows[r] = None
        remap = {}
        for root, extra in groups.items():
            cols = sorted(set(extra) | {root})
            keep = cols[0]
            for c in cols[1:]:
                remap[c] = keep
                self.members[keep].extend(self.members[c])
                self.members[c] = []
                self.obj[keep] += self.obj[c]
                self.is_int[keep] = self.is_int[keep] or self.is_int[c]
                lo = max(self.lb[keep], self.lb[c])
                hi = min(self.ub[keep], self.ub[c])
                if lo > hi + FEAS_TOL:
                    self.infeasible = True
                    return True
                self.lb[keep], self.ub[keep] = lo, hi
        for row in self.rows:
            if row is None:
                continue
            for c in [c for c in row if c in remap]:
                row[remap[c]] = row.get(remap[c], 0.0) + row.pop(c)
            for c in [c for c, a in row.items() if a == 0.0]:
                row.pop(c)
        return True

    def _drop_inert_singletons(self) -> bool:
        usage = self._col_usage()
        changed = False
        for c, used_in in usage.items():
            if len(used_in) != 1 or self.obj[c] != 0.0 or c in self.fixed:
                continue
            r = used_in[0]
            row = self.rows[r]
            if row is None or c not in row:
                continue
            a = row[c]
            sense, b = self.senses[r], self.rhs[r]
            others = {k: v for k, v in row.items() if k != c}
            lo_o, hi_o = self._min_max_activity(others)
            lo_c, hi_c = self.lb[c], self.ub[c]
            if self.is_int[c]:
                integral_ok = abs(abs(a) - 1.0) < 1e-12 and all(
                    abs(v - round(v)) < 1e-12 for v in others.values()
                ) and abs(b - round(b)) < 1e-12 and all(self.is_int[k] for k in others)
                if not integral_ok:
                    continue
            reach_hi = a * hi_c if a > 0 else a * lo_c  # max of a*x_c
            reach_lo = a * lo_c if a > 0 else a * hi_c
            if sense == SENSE_GE:
                ok = reach_hi == inf or (
                    isfinite(lo_o) and reach_hi >= b - lo_o - FEAS_TOL
                )
            elif sense == SENSE_LE:
                ok = reach_lo == -inf or (
                    isfinite(hi_o) and reach_lo <= b - hi_o + FEAS_TOL
                )
            else:
                ok = (
                    isfinite(lo_o)
                    and isfinite(hi_o)
                    and reach_lo <= b - hi_o + FEAS_TOL
                    and reach_hi >= b - lo_o - FEAS_TOL
                )
            if not ok:
                continue
            rep_others = [(self.members[k][0], v) for k, v in others.items()]
            self.singles.append(
                (
                    self.members[c],
                    a,
                    sense,
                    b,
                    rep_others,
                    lo_c,
                    hi_c,
                    self.is_int[c],
                )
            )
            self.rows[r] = None
            self.members[c] = []  # retired: postsolve sets it from the record
            changed = True
        return changed

    def _fix_empty_columns(self) -> bool:
        usage = self._col_usage()
        changed = False
        for c in range(len(self.lb)):
            if c in self.fixed or c in usage or not self.members[c]:
                continue
            if self.obj[c] > 0 or (self.obj[c] == 0 and isfinite(self.lb[c])):
                target = self.lb[c]
            else:
                target = self.ub[c]
            if not isfinite(target):
                target = 0.0
            self._fix(c, target)
            changed = True
        return changed

    # -- output -------------------------------------------------------------

    def finish(self):
        alive = [
            c
            for c in range(len(self.lb))
            if c not in self.fixed and self.members[c]
        ]
        new_index = {c: k for k, c in enumerate(alive)}
        entries = []
        senses, rhs = [], []
        rkeep = 0
        for r, row in enumerate(self.rows):
            if row is None:
                continue
            live = {c: a for c, a in row.items() if c in new_index}
            for c, a in live.items():
                entries.append((rkeep, new_index[c], a))
            # Fully-fixed rows were substituted already; anything left with
            # no live column is a constant row checked earlier.
            senses.append(self.senses[r])
            rhs.append(self.rhs[r])
            rkeep += 1
        n = len(alive)
        if entries:
            rr, cc, vv = zip(*entries)
            A = sp.coo_matrix((vv, (rr, cc)), shape=(rkeep, n)).tocsr()
        else:
            A = sp.csr_matrix((rkeep, n))
        reduced = ReducedModel(
            A=A,
            senses=senses,
            rhs=np.asarray(rhs),
            lb=np.asarray([self.lb[c] for c in alive]),
            ub=np.asarray([self.ub[c] for c in alive]),
            obj=np.asarray([self.obj[c] for c in alive]),
            is_int=np.asarray([self.is_int[c] for c in alive]),
            obj_offset=self.obj_offset,
            members=[list(self.members[c]) for c in alive],
        )
        fixed_out = {orig: v for c, v in self.fixed.items() for orig in self.members[c]}
        return reduced, fixed_out, list(self.singles)
