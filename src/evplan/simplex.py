"""Bounded-variable revised dual simplex.

Solves   min c'x  s.t.  A x (<=|=|>=) b,  l <= x <= u.

Rows are turned into equalities with one slack each (bounded by the row
sense), so variable bounds never become explicit rows. The engine keeps its
basis, its factorization and its reduced costs from one solve to the next.
A new solve changes only bounds, and bounds do not enter the reduced costs,
so the kept basis stays dual feasible once each nonbasic column is put at
the bound its reduced cost's sign asks for; the dual simplex then restores
primal feasibility from there. Branch and bound re-solves a node this way
without a primal phase 1 and without refactoring the kept basis.

When no finite bound fits a reduced cost (it points at an infinite bound, or
a free column has one), the start is not dual feasible. Those reduced costs
are shifted to zero, the dual pass reaches a primal-feasible basis, and the
primal simplex finishes on the true costs; it also detects unboundedness.

The basis has two representations behind one interface (ftran, btran, the
pivot row of a basis position, the entering column of a column, a pivot
update), chosen from the row count when the engine is built:

- Bases of more than DENSE_MAX_ROWS rows keep a sparse LU factorization
  plus product-form eta updates, rebuilt once the etas hold more nonzeros
  than the factors or after REFACTOR_EVERY updates. A pivot row is [A I]'
  times a btran of a unit vector, an entering column an ftran of a column
  of [A I].
- Smaller bases keep the whole tableau T = B^-1 [A I] as a dense matrix,
  made from the same SuperLU factors and changed by one rank-1 update per
  pivot, rebuilt after REFACTOR_EVERY updates. The pivot row is a row of
  T and the entering column a column of T, so a dual step makes no solve
  and no product with [A I]; the update costs m (n + m) flops, as the
  pivot-row product it replaces did. T's slack block is B^-1, which serves
  ftran and btran. Below about a hundred rows a SuperLU solve and a Python
  step per eta cost more than the arithmetic does. Measured on the bundled
  grid (branch and bound at gap 0.10 over 100 or 300 nodes, two cores, BLAS
  on one thread or at its default), the tableau searched 2.1-3.0 times as
  fast as the sparse form at 110 rows, 1.6-2.2 times at 202 rows and
  1.1-1.5 times at 310 rows, but 1.2-1.5 times slower at 412 rows; the
  threshold of 128 rows keeps it where it wins by a wide margin.

Both forms import their linear algebra (SuperLU from scipy.sparse.linalg,
dger from scipy.linalg.blas) when they factor their first basis, not when
this module is imported. Building and exporting a model never factors a
basis, so ``evplan build`` and ``evplan solve --import`` never load those
libraries: the pipeline's imports then leave the process at 51 MB
resident instead of 61 MB (scipy 1.17, Linux x86-64).

Either way the engine recomputes the basic values and reduced costs from
scratch at each rebuild. The dual pass picks the row with the largest bound
violation and the column by the ratio |d_j / alpha_j| (ties to the largest
|alpha_j|); the primal pass prices Dantzig-style. Both break remaining ties
by the lowest index and switch permanently to lowest-index choices after a
long degenerate stall, which keeps runs deterministic and cycle-free.

The dual pass's updated reduced costs can drift to the wrong sign in a
degenerate stretch. When they call its final basis dual infeasible, the
primal pass goes on from it on the true costs, so ``optimal`` is reported
only from a basis whose reduced costs, as the engine holds them, fit their
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .milp import SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel

BASIC, AT_LOWER, AT_UPPER, AT_FREE = 0, 1, 2, 3

FEAS_TOL = 1e-7
DUAL_TOL = 1e-9
PIVOT_TOL = 1e-10
RATIO_TIE = 1e-9
REFACTOR_EVERY = 100
DENSE_MAX_ROWS = 128  # bases of at most this many rows keep a dense tableau
STALL_LIMIT = 300
ITER_LIMIT_BASE = 20000  # iterations per solve: base + per column (structural and slack)
ITER_LIMIT_PER_COLUMN = 10


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    reduced_costs: np.ndarray | None = None  # structural columns, at optimum


def solve_lp(model: MilpModel, lb: np.ndarray | None = None, ub: np.ndarray | None = None) -> LpResult:
    """LP relaxation of ``model`` (integrality dropped); optional bound
    overrides let branch-and-bound share one matrix across nodes."""
    simplex = BoundedSimplex(model.A, model.rhs, list(model.row_sense), model.obj)
    return simplex.solve(model.lb if lb is None else lb, model.ub if ub is None else ub)


class _SparseInverse:
    """B^-1 as SuperLU factors of B and a product-form eta file; tableau rows
    and columns are computed from the CSC matrix [A I] when asked for."""

    def __init__(self, B, A):
        from scipy.sparse.linalg import splu

        self.lu = splu(B)
        self.lu_nnz = self.lu.L.nnz + self.lu.U.nnz
        self.etas = []
        self.eta_nnz = 0
        self.A, self.AT = A, A.T

    def ftran(self, v):
        v = self.lu.solve(v)
        for r, w_idx, w_val, piv in self.etas:
            t = v[r] / piv
            if t != 0.0:
                v[w_idx] -= w_val * t
            v[r] = t
        return v

    def btran(self, v):
        v = np.array(v, dtype=float)
        for r, w_idx, w_val, piv in reversed(self.etas):
            v[r] = (v[r] - w_val.dot(v[w_idx])) / piv
        return self.lu.solve(v, trans="T")

    def pivot_row(self, r):
        """Row r of B^-1 [A I]."""
        e = np.zeros(self.lu.shape[0])
        e[r] = 1.0
        return self.AT @ self.btran(e)

    def column(self, q):
        """B^-1 times column q of [A I]."""
        A = self.A
        out = np.zeros(self.lu.shape[0])
        start, end = A.indptr[q], A.indptr[q + 1]
        out[A.indices[start:end]] = A.data[start:end]
        return self.ftran(out)

    def update(self, r, w) -> bool:
        """Column ``w`` (an ftran) replaces basis position ``r``; True when
        the inverse should be rebuilt."""
        nz = (np.abs(w) > 1e-13).nonzero()[0]
        nz = nz[nz != r]
        self.etas.append((r, nz, w[nz].copy(), w[r]))
        self.eta_nnz += nz.size + 1
        return len(self.etas) >= REFACTOR_EVERY or self.eta_nnz > self.lu_nnz


class _DenseTableau:
    """The tableau T = B^-1 [A I] as a dense matrix, updated in place at each
    pivot. Its slack block is B^-1."""

    def __init__(self, B, A):
        # SuperLU's own triangular solves, not np.linalg.inv: with BLAS
        # threads at their default, inv of a 110-row basis took up to 0.13 s
        # on a busy two-core machine. The solve returns Fortran order, which
        # lets dger update T in place.
        from scipy.linalg.blas import dger
        from scipy.sparse.linalg import splu

        self.dger = dger
        self.T = np.asfortranarray(splu(B).solve(A))
        self.inv = self.T[:, A.shape[1] - B.shape[0]:]
        self.updates = 0

    def ftran(self, v):
        return self.inv @ v

    def btran(self, v):
        return v @ self.inv

    def pivot_row(self, r):
        return self.T[r]

    def column(self, q):
        return self.T[:, q]

    def update(self, r, w) -> bool:
        # The eta step as one rank-1 change: row r of T is divided by the
        # pivot, and w_i times the new row r leaves every other row i. w may
        # be a view of T, so dger gets a copy.
        pivot_row = self.T[r] / w[r]
        self.dger(-1.0, w.copy(), pivot_row, a=self.T, overwrite_a=True)
        self.T[r] = pivot_row
        self.updates += 1
        return self.updates >= REFACTOR_EVERY


class BoundedSimplex:
    """Reusable engine: the matrix is factor-ready once, variable bounds are
    supplied per solve, and each solve starts from the basis the previous
    one left (branch-and-bound shares one instance across nodes)."""

    def __init__(self, A: sp.csr_matrix, b, senses, c):
        A = sp.csr_matrix(A)
        m, n = A.shape
        self.m, self.n = m, n
        b = np.asarray(b, dtype=float)

        # Row equilibration keeps mixed physical units (pu rows next to kW
        # rows) from wrecking the tolerances.
        scale = np.ones(m)
        if m and A.nnz:
            maxima = abs(A).max(axis=1).toarray().ravel()
            nz = maxima > 0
            scale[nz] = 1.0 / maxima[nz]
            A = sp.diags(scale) @ A
            b = b * scale

        # Bounds of the n structural and m slack columns. A solve writes the
        # structural part; the slack part follows from the row senses.
        self.lb = np.zeros(n + m)
        self.ub = np.zeros(n + m)
        for i, s in enumerate(senses):
            if s == SENSE_LE:
                self.ub[n + i] = np.inf
            elif s == SENSE_GE:
                self.lb[n + i] = -np.inf
            elif s != SENSE_EQ:
                raise ValueError(f"unknown sense {s!r}")
        self.lb_finite, self.ub_finite = np.isfinite(self.lb), np.isfinite(self.ub)
        self.movable = self.lb != self.ub

        # [A I] in CSC gives the basis columns. The products run on Aaug: a
        # dense copy next to a dense tableau, else the CSC matrix itself,
        # whose AT is a CSR view of its arrays. With sorted indices, a
        # product with either adds each row's terms in column order, as a
        # product with a separate CSR copy would.
        self.Aaug_csc = sp.hstack([A, sp.eye(m, format="csc")], format="csc")
        self.Aaug_csc.sort_indices()
        self.dense = m <= DENSE_MAX_ROWS
        self.Aaug = self.Aaug_csc.toarray() if self.dense else self.Aaug_csc
        self.AT = self.Aaug.T
        self.b = b
        self.c = np.concatenate([np.asarray(c, dtype=float), np.zeros(m)])
        self.dual_tol2 = DUAL_TOL * (
            1.0 + float(np.max(np.abs(self.c))) if self.c.size else 1.0
        )
        self.max_iter = ITER_LIMIT_BASE + ITER_LIMIT_PER_COLUMN * (n + m)
        self.basic: np.ndarray | None = None  # None: the next solve starts from the slack basis
        self.d: np.ndarray | None = None  # reduced costs of the basis, None when stale

    # -- basis / factorization --------------------------------------------

    def _refactor(self):
        # Basis columns gathered straight from the CSC arrays, in basis order.
        A = self.Aaug_csc
        starts = A.indptr[self.basic]
        counts = A.indptr[self.basic + 1] - starts
        indptr = np.zeros(self.m + 1, dtype=A.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        B = sp.csc_matrix((A.data[take], A.indices[take], indptr), shape=(self.m, self.m))
        self.inv = (_DenseTableau if self.dense else _SparseInverse)(B, self.Aaug)
        self._recompute_basics()
        self.d = self._price()

    def _recompute_basics(self):
        x_nb = self.x.copy()
        x_nb[self.basic] = 0.0
        xb = self.inv.ftran(self.b - self.Aaug @ x_nb)
        if not np.isfinite(xb).all():
            raise FloatingPointError("basis solve produced non-finite values")
        self.x[self.basic] = xb

    def _price(self):
        """Reduced costs of the working costs for the current basis."""
        d = self.cost - self.AT @ self.inv.btran(self.cost[self.basic])
        d[self.basic] = 0.0
        return d

    def _replace(self, block, q, w):
        """Column ``q`` takes basis position ``block``; ``w`` is its ftran."""
        self.status[q] = BASIC
        self.dir[q] = 0.0
        self.basic[block] = q
        self.lb_b[block], self.ub_b[block] = self.lb[q], self.ub[q]
        if self.inv.update(block, w):
            self._refactor()

    def _at_bound(self, j, to):
        """Nonbasic column ``j`` goes to bound ``to`` (AT_LOWER or AT_UPPER)."""
        self.status[j] = to
        self.dir[j] = (1.0 if to == AT_LOWER else -1.0) if self.movable[j] else 0.0

    def _slack_start(self):
        n, m = self.n, self.m
        self.status = np.full(n + m, AT_LOWER, dtype=np.int8)
        self.status[n:] = BASIC
        self.x = np.zeros(n + m)
        self.basic = np.arange(n, n + m)
        self.lb_b, self.ub_b = self.lb[self.basic], self.ub[self.basic]
        self._refactor()

    def _place_nonbasics(self) -> bool:
        """Put each nonbasic column at the bound its reduced cost asks for;
        a column whose reduced cost is zero stays at the bound it sat at.
        Reduced costs that no finite bound fits are shifted to zero in the
        working costs; returns whether any was. Sets the direction in which
        each column can leave its bound: +1 at lower, -1 at upper, 0 when
        basic, fixed or free."""
        d, tol, stat = self.d, self.dual_tol2, self.status
        no_lb, no_ub = ~self.lb_finite, ~self.ub_finite
        nonbasic = stat != BASIC
        pos, neg = d > tol, d < -tol
        bad = nonbasic & self.movable & ((pos & no_lb) | (neg & no_ub))
        shifted = bool(bad.any())
        if shifted:
            self.cost = self.c.copy()
            self.cost[bad] -= d[bad]
            d[bad] = 0.0
            pos &= ~bad
            neg &= ~bad
        up = nonbasic & self.ub_finite & (neg | (~pos & ((stat == AT_UPPER) | no_lb)))
        np.copyto(stat, np.where(up, AT_UPPER, AT_LOWER), where=nonbasic)
        np.copyto(self.x, np.where(up, self.ub, self.lb), where=nonbasic)
        leave = (nonbasic & self.movable).astype(float)
        self.dir = np.where(up, -leave, leave)
        free = self.free  # a column that goes to neither bound has none
        if free.size:
            free = free[nonbasic[free]]
            stat[free], self.x[free], self.dir[free] = AT_FREE, 0.0, 0.0
        return shifted

    def _free_nonbasic(self):
        """Free columns outside the basis; they can move either way."""
        return self.free[self.status[self.free] == AT_FREE]

    # -- main entry ---------------------------------------------------------

    def solve(self, lb, ub) -> LpResult:
        n = self.n
        lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
        if (lb > ub + 1e-12).any():
            return LpResult(status="infeasible")
        self.lb[:n], self.ub[:n] = lb, ub
        lb_fin, ub_fin = self.lb_finite[:n], self.ub_finite[:n]
        np.isfinite(lb, out=lb_fin)
        np.isfinite(ub, out=ub_fin)
        np.not_equal(lb, ub, out=self.movable[:n])
        self.free = (~(lb_fin | ub_fin)).nonzero()[0]
        self.iters = 0
        self.cost = self.c
        if self.basic is not None:
            self.lb_b, self.ub_b = self.lb[self.basic], self.ub[self.basic]
            try:
                if self.d is None:
                    self.d = self._price()
                return self._reoptimize()
            except (RuntimeError, FloatingPointError):
                pass  # numerical failure: start over from the slack basis
        self.cost = self.c  # the failed attempt may have shifted it
        try:
            self._slack_start()
            return self._reoptimize()
        except (RuntimeError, FloatingPointError):
            self.basic = None
            raise

    def _reoptimize(self) -> LpResult:
        self.bland = False
        self.stall = 0
        shifted = self._place_nonbasics()
        self._recompute_basics()

        while (row := self._leaving_row()) is not None:
            if self.iters >= self.max_iter:
                return self._iteration_limit()
            if not self._dual_step(row):
                if shifted:
                    self.d = None
                return LpResult(status="infeasible", iterations=self.iters)
            self.iters += 1

        # The dual pass ends on primal feasibility. Its updated reduced costs
        # can drift to the wrong sign in a degenerate stretch, so a basis they
        # call dual infeasible goes on through the primal pass.
        if shifted or self._entering(self.d, self.dual_tol2)[0] is not None:
            self.cost = self.c
            self.bland = False
            self.stall = 0
            while True:
                if self.iters >= self.max_iter:
                    return self._iteration_limit()
                outcome = self._phase2_step()
                self.iters += 1
                if outcome == "optimal":
                    break
                if outcome == "unbounded":
                    self.d = None
                    return LpResult(status="unbounded", iterations=self.iters)

        n = self.n
        x = self.x[:n].copy()
        return LpResult(
            status="optimal",
            x=x,
            objective=float(self.c[:n] @ x),
            iterations=self.iters,
            reduced_costs=self.d[:n].copy(),
        )

    def _iteration_limit(self) -> LpResult:
        self.basic = None
        return LpResult(status="iteration_limit", iterations=self.iters)

    # -- dual simplex ----------------------------------------------------------

    def _leaving_row(self):
        """Basis position with the largest bound violation (lowest position
        on ties; lowest column index once stalled), None when feasible."""
        xb = self.x[self.basic]
        viol = np.maximum(self.lb_b - xb, xb - self.ub_b)
        if self.bland:
            rows = (viol > FEAS_TOL).nonzero()[0]
            return int(rows[self.basic[rows].argmin()]) if rows.size else None
        if not viol.size:
            return None
        r = int(viol.argmax())
        return r if viol[r] > FEAS_TOL else None

    def _dual_step(self, r) -> bool:
        """Move the basic column at position ``r`` to its violated bound;
        False when no column can enter, which proves the LP infeasible."""
        p = int(self.basic[r])
        if self.x[p] < self.lb_b[r]:
            target, s, to = self.lb_b[r], 1.0, AT_LOWER
        else:
            target, s, to = self.ub_b[r], -1.0, AT_UPPER
        alpha = self.inv.pivot_row(r)  # row r of B^-1 [A I]
        # A nonbasic column can enter when moving it off its bound moves
        # column p toward its violated bound.
        along = self.dir * alpha
        eligible = along < -PIVOT_TOL if s > 0 else along > PIVOT_TOL
        if self.free.size:
            free = self._free_nonbasic()
            eligible[free] = np.abs(alpha[free]) > PIVOT_TOL
        idx = eligible.nonzero()[0]
        if idx.size == 0:
            return False
        weights = np.abs(alpha[idx])
        ratios = np.abs(self.d[idx]) / weights
        ties = (ratios <= ratios[ratios.argmin()] + RATIO_TIE).nonzero()[0]
        k = int(ties[0]) if self.bland else int(ties[weights[ties].argmax()])
        q, t = int(idx[k]), float(ratios[k])
        self._track_stall(t)

        w = self.inv.column(q)
        piv = w[r]
        if not abs(piv) > PIVOT_TOL:
            raise FloatingPointError("dual pivot vanished in the column solve")
        delta = (self.x[p] - target) / piv
        self.x[self.basic] -= delta * w
        self.x[q] += delta
        self.x[p] = target
        self.d += (t * s) * alpha
        self._at_bound(p, to)
        self._replace(r, q, w)
        self.d[self.basic] = 0.0
        return True

    # -- primal simplex ----------------------------------------------------------

    def _phase2_step(self) -> str:
        d = self._price()
        q, sigma = self._entering(d, self.dual_tol2)
        if q is None:
            self.d = d
            return "optimal"
        if not self._pivot(q, sigma):
            return "unbounded"
        return "step"

    def _entering(self, d, tol):
        mask = self.dir * d < -tol
        if self.free.size:
            free = self._free_nonbasic()
            mask[free] = np.abs(d[free]) > tol
        idx = mask.nonzero()[0]
        if idx.size == 0:
            return None, 0
        q = int(idx[0]) if self.bland else int(idx[np.abs(d[idx]).argmax()])
        sigma = int(self.dir[q]) or (1 if d[q] < 0 else -1)
        return q, sigma

    def _pivot(self, q, sigma) -> bool:
        basic = self.basic
        xb = self.x[basic]
        w = self.inv.column(q)
        rate = -sigma * w  # dx_basic / d(step)

        # Only rows whose basic value moves with the step can block it; the
        # ratio test runs on those positions of the basis.
        rows = ((rate > PIVOT_TOL) | (rate < -PIVOT_TOL)).nonzero()[0]
        r_rate, r_xb = rate[rows], xb[rows]
        r_basic = basic[rows]
        r_lo, r_ub = self.lb_b[rows], self.ub_b[rows]
        lo_fin, ub_fin = self.lb_finite[r_basic], self.ub_finite[r_basic]
        ratios = np.full(rows.size, np.inf)
        to = np.zeros(rows.size, dtype=np.int8)
        sel = (r_rate < -PIVOT_TOL) & lo_fin
        ratios[sel] = (r_xb[sel] - r_lo[sel]) / -r_rate[sel]
        to[sel] = AT_LOWER
        sel = (r_rate > PIVOT_TOL) & ub_fin
        ratios[sel] = (r_ub[sel] - r_xb[sel]) / r_rate[sel]
        to[sel] = AT_UPPER
        ratios = np.maximum(ratios, 0.0)

        limit = float(ratios.min()) if rows.size else np.inf
        self_range = self.ub[q] - self.lb[q]
        if np.isfinite(self_range) and self_range < limit - RATIO_TIE:
            step = self_range
            self._track_stall(step)
            self.x[basic] = xb + rate * step
            self.x[q] += sigma * step
            self._at_bound(q, AT_UPPER if sigma > 0 else AT_LOWER)
            return True
        if not np.isfinite(limit):
            return False  # unbounded direction

        cands = (ratios <= limit + RATIO_TIE).nonzero()[0]
        weights = np.abs(w[rows[cands]])
        heavy = cands[weights >= weights.max() - 1e-12]
        k = int(heavy[r_basic[heavy].argmin()])
        block = int(rows[k])

        step = max(float(ratios[k]), 0.0)
        self._track_stall(step)
        self.x[basic] = xb + rate * step
        self.x[q] += sigma * step

        leave = int(basic[block])
        self._at_bound(leave, to[k])
        self.x[leave] = self.lb[leave] if to[k] == AT_LOWER else self.ub[leave]
        self._replace(block, q, w)
        return True

    def _track_stall(self, step):
        if step <= 1e-12:
            self.stall += 1
            if self.stall > STALL_LIMIT:
                self.bland = True
        else:
            self.stall = 0
