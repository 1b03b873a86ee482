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
 * empty columns move to their cheapest bound; one whose cost falls
   without limit (no bound on its cheap side) ends presolve as unbounded.

The state is numpy arrays: the live matrix entries as COO arrays in row
order, per-row sense, right-hand side and liveness, per-column bounds,
cost, integrality and liveness. The propagation sweep is one vectorized
Jacobi step over all live rows: row activities are summed in entry order
with the infinite terms counted apart, each entry yields a candidate bound
for its column, and each column takes the tightest of its candidates.

A merged or removed column is retired by emptying its member list; the
merge target or the removal record carries its original columns. Postsolve
replays the recorded transforms to recover a full assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite

import numpy as np
import scipy.sparse as sp

from .milp import SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel

FEAS_TOL = 1e-9
MAX_PASSES = 30


def _sums(index, weights, n) -> np.ndarray:
    """Per slot 0..n-1, the sum in array order of the ``weights`` whose
    ``index`` is that slot: floats, also for an empty ``index`` (on which
    ``np.bincount`` returns integers)."""
    return np.bincount(index, weights, minlength=n).astype(float, copy=False)


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
    status: str  # reduced | infeasible | unbounded
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
                val = np.round(val)
            x[cols] = min(max(val, lo), hi)
        return x


def presolve(model: MilpModel) -> PresolveResult:
    work = _Working(model)
    for _ in range(MAX_PASSES):
        changed = work.one_pass()
        if work.infeasible:
            return PresolveResult(status="infeasible", n_original=model.n_cols)
        if work.unbounded:
            return PresolveResult(status="unbounded", n_original=model.n_cols)
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
    """Mutable presolve state on arrays. The entries (``row``, ``col``,
    ``val``) stay sorted by row, each row's in the order it first had them
    (a merged column's sum in the place of its first entry); a live column
    is neither fixed nor retired."""

    def __init__(self, model: MilpModel):
        A = model.A.tocsr()
        m, n = A.shape
        self.row = np.repeat(np.arange(m), np.diff(A.indptr))
        self.col = A.indices.astype(np.int64)
        self.val = A.data.astype(float)
        self.senses = np.asarray(model.row_sense, dtype="U1")
        self.rhs = np.array(model.rhs, dtype=float)
        self.row_live = np.ones(m, dtype=bool)
        self.lb = np.array(model.lb, dtype=float)
        self.ub = np.array(model.ub, dtype=float)
        self.obj = np.array(model.obj, dtype=float)
        self.is_int = np.array(model.is_int, dtype=bool)
        self.col_live = np.ones(n, dtype=bool)
        self.members = [[j] for j in range(n)]
        self.obj_offset = 0.0
        self.fixed: dict[int, float] = {}
        self.singles: list[tuple] = []
        self.infeasible = False
        self.unbounded = False

    # -- helpers ---------------------------------------------------------

    def _fix(self, col, val):
        val = min(max(val, self.lb[col]), self.ub[col])
        if self.is_int[col]:
            val = np.round(val)  # keeps the sign of a zero result
        val = float(val)
        self.fixed[col] = val
        self.obj_offset += float(self.obj[col]) * val
        self.lb[col] = self.ub[col] = val
        self.col_live[col] = False

    def _keep_entries(self, keep):
        self.row, self.col, self.val = self.row[keep], self.col[keep], self.val[keep]

    def _drop_rows(self, rows):
        self.row_live[rows] = False
        self._keep_entries(self.row_live[self.row])

    def _terms(self):
        """Each entry's smallest and largest term ``a*x`` over its column's
        bounds."""
        pos = self.val > 0
        lb, ub = self.lb[self.col], self.ub[self.col]
        return self.val * np.where(pos, lb, ub), self.val * np.where(pos, ub, lb)

    def _row_sums(self, terms):
        """Per row, the sum of its entries' finite ``terms`` in entry order,
        and the count of its infinite ones."""
        m = len(self.rhs)
        finite = np.isfinite(terms)
        return (_sums(self.row[finite], terms[finite], m),
                np.bincount(self.row[~finite], minlength=m))

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
        hit = self.lb[self.col] == self.ub[self.col]
        np.subtract.at(self.rhs, self.row[hit], self.val[hit] * self.lb[self.col[hit]])
        self._keep_entries(~hit)
        # Live columns not yet recorded as fixed (e.g. bounds collapsed by
        # tightening) get a fix record now.
        collapsed = np.flatnonzero(self.col_live & (self.lb == self.ub)).tolist()
        for c in collapsed:
            self._fix(c, self.lb[c])
        return bool(hit.any() or collapsed)

    def _propagate(self) -> bool:
        """Bound tightening from row activities, one Jacobi sweep over the
        live rows: every activity and candidate bound is read from the
        bounds the sweep starts with.

        Each variable must fit in the slack the other variables leave at
        their loosest: the upper side of a <= or = row, the lower side of a
        >= or = row. A one-column row is a plain bound on its column and is
        dropped once applied; a forcing row (activity already at the rhs)
        pins every column to its extreme. This is also what eliminates
        equipment choices whose single use already overshoots a battery
        (one fast-charger hour on a small pack).
        """
        row, col, val, b = self.row, self.col, self.val, self.rhs
        tmin, tmax = self._terms()
        (lo, lo_inf), (hi, hi_inf) = self._row_sums(tmin), self._row_sums(tmax)
        lo[lo_inf > 0], hi[hi_inf > 0] = -inf, inf
        live = self.row_live
        upper, lower = self.senses != SENSE_GE, self.senses != SENSE_LE
        if np.any(live & ((upper & (lo > b + FEAS_TOL)) | (lower & (hi < b - FEAS_TOL)))):
            self.infeasible = True
            return True
        # Rows that every bound satisfies tighten nothing and are dropped.
        slack = live & (~upper | (hi <= b + FEAS_TOL)) & (~lower | (lo >= b - FEAS_TOL))
        single = np.bincount(row, minlength=len(b)) == 1
        lb_new = np.full(len(self.lb), -inf)
        ub_new = np.full(len(self.ub), inf)
        for is_upper, side, act, own in ((True, upper, lo, tmin), (False, lower, hi, tmax)):
            use = (live & ~slack & side & (single | np.isfinite(act)))[row]
            r, a = row[use], val[use]
            # The other columns' part of the activity: the row's minus the
            # entry's own term, none in a one-column row.
            one = single[r]
            rest = np.where(one, 0.0, act[r]) - np.where(one, 0.0, own[use])
            bound = (b[r] - rest) / a
            # The upper side caps a column with a positive coefficient and
            # lifts one with a negative coefficient; the lower side the reverse.
            caps = (a > 0) == is_upper
            np.minimum.at(ub_new, col[use][caps], bound[caps])
            np.maximum.at(lb_new, col[use][~caps], bound[~caps])
        raised = lb_new > self.lb + FEAS_TOL
        cut = ub_new < self.ub - FEAS_TOL
        self.lb[raised] = lb_new[raised]
        self.ub[cut] = ub_new[cut]
        rounded = (raised | cut) & self.is_int
        self.lb[rounded] = np.ceil(self.lb[rounded] - 1e-7)
        self.ub[rounded] = np.floor(self.ub[rounded] + 1e-7)
        if np.any(self.lb > self.ub + FEAS_TOL):
            self.infeasible = True
            return True
        dropped = slack | (live & single)
        self._drop_rows(dropped)
        return bool(raised.any() or cut.any() or dropped.any())

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

        count = np.bincount(self.row, minlength=len(self.rhs))
        rows = np.flatnonzero((count == 2) & (np.abs(self.rhs) <= FEAS_TOL))
        first = np.searchsorted(self.row, rows)
        a1, a2 = self.val[first], self.val[first + 1]
        opposed = np.abs(a1 + a2) <= 1e-12 * np.maximum(np.abs(a1), np.abs(a2))
        # Each row's entry with the positive coefficient, and the other one.
        pos_e = np.where(a1 > 0, first, first + 1)[opposed]
        neg_e = np.where(a1 > 0, first + 1, first)[opposed]
        implications: dict[tuple[int, int], set[str]] = {}
        merge_rows = []
        for r, pos, neg in zip(rows[opposed].tolist(), self.col[pos_e].tolist(),
                               self.col[neg_e].tolist()):
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
        self._drop_rows(merge_rows)
        remap = np.arange(len(self.lb))
        for root, extra in groups.items():
            cols = sorted(set(extra) | {root})
            keep = cols[0]
            for c in cols[1:]:
                remap[c] = keep
                self.members[keep].extend(self.members[c])
                self.members[c] = []
                self.col_live[c] = False
                self.obj[keep] += self.obj[c]
                self.is_int[keep] = self.is_int[keep] or self.is_int[c]
                lo = max(self.lb[keep], self.lb[c])
                hi = min(self.ub[keep], self.ub[c])
                if self.is_int[keep]:
                    # Rounded as _propagate rounds; a whole bound stays as
                    # it is, since ceil(0.0 - 1e-7) is -0.0.
                    lo = lo if lo == np.floor(lo) else np.ceil(lo - 1e-7)
                    hi = hi if hi == np.floor(hi) else np.floor(hi + 1e-7)
                if lo > hi + FEAS_TOL:
                    self.infeasible = True
                    return True
                self.lb[keep], self.ub[keep] = lo, hi
        self._remap_entries(remap)
        return True

    def _remap_entries(self, remap):
        """Rename every entry's column through ``remap`` and sum, in row
        order, the entries a row then holds twice. The sum takes the place
        of the first of them. Zero sums are dropped."""
        n = len(self.lb)
        keys, first, group = np.unique(self.row * n + remap[self.col],
                                       return_index=True, return_inverse=True)
        val = _sums(group, self.val, len(keys))
        order = np.argsort(first)
        self.row, self.col, self.val = keys[order] // n, keys[order] % n, val[order]
        self._keep_entries(self.val != 0.0)

    def _drop_inert_singletons(self) -> bool:
        # A zero-cost column in one row only leaves with that row when some
        # value in its bounds meets the row for any values of the others.
        # Each row loses at most its first such column.
        row, col, val = self.row, self.col, self.val
        uses = np.bincount(col, minlength=len(self.lb))
        cand = np.flatnonzero((uses[col] == 1) & (self.obj[col] == 0.0) & self.col_live[col])
        if not cand.size:
            return False
        tmin, tmax = self._terms()
        (lo, lo_inf), (hi, hi_inf) = self._row_sums(tmin), self._row_sums(tmax)
        r, c, a, b = row[cand], col[cand], val[cand], self.rhs[row[cand]]
        # The other columns' activity range: the row's without the own term,
        # unbounded while a term besides the own one is infinite.
        own_lo, own_hi = tmin[cand], tmax[cand]
        lo_o = np.where(lo_inf[r] > ~np.isfinite(own_lo), -inf,
                        lo[r] - np.where(np.isfinite(own_lo), own_lo, 0.0))
        hi_o = np.where(hi_inf[r] > ~np.isfinite(own_hi), inf,
                        hi[r] - np.where(np.isfinite(own_hi), own_hi, 0.0))
        # An integer column leaves only a row of unit own coefficient and
        # integer data over integer columns.
        fractional = (np.abs(val - np.round(val)) >= 1e-12) | ~self.is_int[col]
        integral = (
            (np.abs(np.abs(a) - 1.0) < 1e-12)
            & (np.bincount(row[fractional], minlength=len(self.rhs))[r] == 0)
            & (np.abs(b - np.round(b)) < 1e-12)
        )
        sense = self.senses[r]
        absorbs_ge = (own_hi == inf) | (np.isfinite(lo_o) & (own_hi >= b - lo_o - FEAS_TOL))
        absorbs_le = (own_lo == -inf) | (np.isfinite(hi_o) & (own_lo <= b - hi_o + FEAS_TOL))
        absorbs_eq = (np.isfinite(lo_o) & np.isfinite(hi_o)
                      & (own_lo <= b - hi_o + FEAS_TOL) & (own_hi >= b - lo_o - FEAS_TOL))
        ok = (~self.is_int[c] | integral) & np.select(
            [sense == SENSE_GE, sense == SENSE_LE], [absorbs_ge, absorbs_le], absorbs_eq)
        _, first = np.unique(r[ok], return_index=True)
        taken = cand[ok][first]
        for e in taken.tolist():
            rr, cc = row[e], col[e]
            lo_e, hi_e = np.searchsorted(row, [rr, rr + 1])
            rep_others = [(self.members[k][0], v) for k, v in
                          zip(col[lo_e:hi_e].tolist(), val[lo_e:hi_e].tolist()) if k != cc]
            self.singles.append(
                (
                    self.members[cc],
                    float(val[e]),
                    str(self.senses[rr]),
                    float(self.rhs[rr]),
                    rep_others,
                    float(self.lb[cc]),
                    float(self.ub[cc]),
                    bool(self.is_int[cc]),
                )
            )
            self.members[cc] = []  # retired: postsolve sets it from the record
            self.col_live[cc] = False
        self._drop_rows(row[taken])
        return bool(taken.size)

    def _fix_empty_columns(self) -> bool:
        """Fix each empty column at its cheapest bound (a free zero-cost one
        at 0.0). A column whose cost improves without limit makes the model
        unbounded, which ends the passes."""
        uses = np.bincount(self.col, minlength=len(self.lb))
        empty = np.flatnonzero(self.col_live & (uses == 0)).tolist()
        for c in empty:
            if self.obj[c] > 0 or (self.obj[c] == 0 and isfinite(self.lb[c])):
                target = self.lb[c]
            else:
                target = self.ub[c]
            if not isfinite(target):
                if self.obj[c] != 0:
                    self.unbounded = True
                    return True
                target = 0.0
            self._fix(c, target)
        return bool(empty)

    # -- output -------------------------------------------------------------

    def finish(self):
        alive = np.flatnonzero(self.col_live)
        rows = np.flatnonzero(self.row_live)
        new_col = np.full(len(self.lb), -1)
        new_col[alive] = np.arange(len(alive))
        new_row = np.full(len(self.rhs), -1)
        new_row[rows] = np.arange(len(rows))
        # Every entry's column is live once the passes settle; a fully fixed
        # row keeps no entry and stays as a constant row checked earlier.
        keep = self.col_live[self.col]
        A = sp.coo_matrix(
            (self.val[keep], (new_row[self.row[keep]], new_col[self.col[keep]])),
            shape=(len(rows), len(alive)),
        ).tocsr()
        reduced = ReducedModel(
            A=A,
            senses=self.senses[rows].tolist(),
            rhs=self.rhs[rows],
            lb=self.lb[alive],
            ub=self.ub[alive],
            obj=self.obj[alive],
            is_int=self.is_int[alive],
            obj_offset=self.obj_offset,
            members=[list(self.members[c]) for c in alive],
        )
        fixed_out = {orig: v for c, v in self.fixed.items() for orig in self.members[c]}
        return reduced, fixed_out, list(self.singles)
