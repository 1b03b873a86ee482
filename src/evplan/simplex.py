"""Bounded-variable revised primal simplex.

Solves   min c'x  s.t.  A x (<=|=|>=) b,  l <= x <= u.

Rows are turned into equalities with one slack each (bounded by the row
sense), so variable bounds never become explicit rows. The basis inverse is
kept as a sparse LU factorization plus product-form eta updates, refreshed
periodically. Pricing is Dantzig with lowest-index tie-breaking and a
permanent switch to Bland's rule after a long degenerate stall, which keeps
runs deterministic and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .milp import SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel

BASIC, AT_LOWER, AT_UPPER, AT_FREE = 0, 1, 2, 3

FEAS_TOL = 1e-7
DUAL_TOL = 1e-9
PIVOT_TOL = 1e-10
RATIO_TIE = 1e-9
REFACTOR_EVERY = 100
STALL_LIMIT = 300
ITER_LIMIT_BASE = 20000  # iterations per solve: base + per column (structural and slack)
ITER_LIMIT_PER_COLUMN = 10


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    basis: np.ndarray | None = None  # per augmented column, for warm starts
    reduced_costs: np.ndarray | None = None  # structural columns, at optimum


def solve_lp(
    model: MilpModel,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
    warm_basis: np.ndarray | None = None,
) -> LpResult:
    """LP relaxation of ``model`` (integrality dropped); optional bound
    overrides let branch-and-bound share one matrix across nodes."""
    simplex = BoundedSimplex(model.A, model.rhs, list(model.row_sense), model.obj)
    return simplex.solve(
        model.lb if lb is None else lb,
        model.ub if ub is None else ub,
        warm_basis=warm_basis,
    )


class BoundedSimplex:
    """Reusable engine: the matrix is factor-ready once, variable bounds are
    supplied per solve (branch-and-bound shares one instance across nodes)."""

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

        slack_lb = np.empty(m)
        slack_ub = np.empty(m)
        for i, s in enumerate(senses):
            if s == SENSE_LE:
                slack_lb[i], slack_ub[i] = 0.0, np.inf
            elif s == SENSE_GE:
                slack_lb[i], slack_ub[i] = -np.inf, 0.0
            elif s == SENSE_EQ:
                slack_lb[i], slack_ub[i] = 0.0, 0.0
            else:
                raise ValueError(f"unknown sense {s!r}")
        self.slack_lb, self.slack_ub = slack_lb, slack_ub

        self.Aaug_csc = sp.hstack([A, sp.eye(m, format="csc")], format="csc")
        self.Aaug_csr = self.Aaug_csc.tocsr()
        self.AT = self.Aaug_csr.T.tocsr()
        self.b = b
        self.c = np.concatenate([np.asarray(c, dtype=float), np.zeros(m)])
        self.dual_tol2 = DUAL_TOL * (
            1.0 + float(np.max(np.abs(self.c))) if self.c.size else 1.0
        )
        self._last_status: np.ndarray | None = None  # engine state after a solve

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
        self.lu = spla.splu(B)
        self.etas = []
        self._recompute_basics(use_etas=False)

    def _recompute_basics(self, use_etas: bool):
        x_nb = self.x.copy()
        x_nb[self.basic] = 0.0
        r = self.b - self.Aaug_csr @ x_nb
        xb = self._ftran(r) if use_etas else self.lu.solve(r)
        if not np.all(np.isfinite(xb)):
            raise FloatingPointError("basis solve produced non-finite values")
        self.x[self.basic] = xb

    def _ftran(self, v):
        v = self.lu.solve(v)
        for r, w_idx, w_val, piv in self.etas:
            t = v[r] / piv
            if t != 0.0:
                v[w_idx] -= w_val * t
            v[r] = t
        return v

    def _btran(self, v):
        v = np.array(v, dtype=float)
        for r, w_idx, w_val, piv in reversed(self.etas):
            v[r] = (v[r] - w_val.dot(v[w_idx])) / piv
        return self.lu.solve(v, trans="T")

    def _column(self, q):
        out = np.zeros(self.m)
        start, end = self.Aaug_csc.indptr[q], self.Aaug_csc.indptr[q + 1]
        out[self.Aaug_csc.indices[start:end]] = self.Aaug_csc.data[start:end]
        return out

    def _slack_start(self):
        n, m = self.n, self.m
        self.status = np.full(n + m, AT_LOWER, dtype=np.int8)
        self.status[n:] = BASIC
        self.x = np.zeros(n + m)
        for j in range(n):
            lo, hi = self.lb[j], self.ub[j]
            if np.isfinite(lo):
                self.x[j] = lo
            elif np.isfinite(hi):
                self.x[j], self.status[j] = hi, AT_UPPER
            else:
                self.x[j], self.status[j] = 0.0, AT_FREE
        self.basic = np.flatnonzero(self.status == BASIC)

    # -- main entry ---------------------------------------------------------

    def solve(self, lb, ub, warm_basis=None) -> LpResult:
        m, n = self.m, self.n
        total = n + m
        self.lb = np.concatenate([np.asarray(lb, dtype=float), self.slack_lb])
        self.ub = np.concatenate([np.asarray(ub, dtype=float), self.slack_ub])
        if np.any(self.lb > self.ub + 1e-12):
            return LpResult(status="infeasible")
        self.lb_finite, self.ub_finite = np.isfinite(self.lb), np.isfinite(self.ub)
        self.movable = ~(self.lb == self.ub)
        max_iter = ITER_LIMIT_BASE + ITER_LIMIT_PER_COLUMN * total

        engine_ready = self._last_status
        self._last_status = None  # only a clean optimal exit restores it
        started = False
        if warm_basis is not None and len(warm_basis) == total:
            status = np.asarray(warm_basis, dtype=np.int8).copy()
            if np.count_nonzero(status == BASIC) == m:
                self.status = status
                self.x = np.zeros(total)
                nonbasic = status != BASIC
                lb_fin, ub_fin = self.lb_finite, self.ub_finite
                at_up = nonbasic & (status == AT_UPPER) & ub_fin
                at_lo = nonbasic & ~at_up
                self.x[at_up] = self.ub[at_up]
                lo_vals = np.where(lb_fin, self.lb, np.where(ub_fin, self.ub, 0.0))
                self.x[at_lo] = lo_vals[at_lo]
                self.status[at_lo & ~lb_fin & ub_fin] = AT_UPPER
                self.status[at_lo & ~lb_fin & ~ub_fin] = AT_FREE
                try:
                    if engine_ready is not None and np.array_equal(
                        status, engine_ready
                    ) and len(self.etas) < REFACTOR_EVERY:
                        # The engine still holds this basis factorized (the
                        # usual case when diving); only the bounds moved.
                        self._recompute_basics(use_etas=True)
                    else:
                        self.basic = np.flatnonzero(self.status == BASIC)
                        self._refactor()
                    started = True
                except (RuntimeError, FloatingPointError):
                    started = False
        if not started:
            self._slack_start()
            self._refactor()

        self.bland = False
        self.stall = 0
        iters = 0

        # Phase 1: drive basic bound violations to zero.
        while True:
            xb, lo, hi = self.x[self.basic], self.lb[self.basic], self.ub[self.basic]
            infeasibility = float(np.sum(np.maximum(lo - xb, 0)) + np.sum(np.maximum(xb - hi, 0)))
            if not infeasibility > FEAS_TOL * (1 + m):
                break
            if iters >= max_iter:
                return LpResult(status="iteration_limit", iterations=iters)
            if not self._phase1_step(xb, lo, hi):
                # No step was taken, so the violation above still stands.
                return LpResult(status="infeasible", iterations=iters)
            iters += 1

        # Phase 2: optimize the true objective.
        while True:
            if iters >= max_iter:
                return LpResult(status="iteration_limit", iterations=iters)
            outcome = self._phase2_step()
            iters += 1
            if outcome == "optimal":
                break
            if outcome == "unbounded":
                return LpResult(status="unbounded", iterations=iters)

        x = self.x[:n].copy()
        self._last_status = self.status.copy()
        return LpResult(
            status="optimal",
            x=x,
            objective=float(self.c[:n] @ x),
            iterations=iters,
            basis=self._last_status.copy(),
            reduced_costs=self._opt_d[:n].copy(),
        )

    # -- phases --------------------------------------------------------------

    def _phase1_step(self, xb, lo, hi) -> bool:
        """One step on the basic values ``xb`` and their bounds; False when
        no step is taken."""
        cb = np.where(xb < lo - FEAS_TOL, -1.0, np.where(xb > hi + FEAS_TOL, 1.0, 0.0))
        if not cb.any():
            return False
        y = self._btran(cb)
        d = -(self.AT @ y)
        q, sigma = self._entering(d, DUAL_TOL)
        if q is None:
            return False
        return self._pivot(q, sigma, xb, lo, hi, phase1=True)

    def _phase2_step(self) -> str:
        y = self._btran(self.c[self.basic])
        d = self.c - self.AT @ y
        q, sigma = self._entering(d, self.dual_tol2)
        if q is None:
            self._opt_d = d
            return "optimal"
        basic = self.basic
        if not self._pivot(q, sigma, self.x[basic], self.lb[basic], self.ub[basic], phase1=False):
            return "unbounded"
        return "step"

    def _entering(self, d, tol):
        stat = self.status
        movable = self.movable
        mask = (
            ((stat == AT_LOWER) & movable & (d < -tol))
            | ((stat == AT_UPPER) & movable & (d > tol))
            | ((stat == AT_FREE) & (np.abs(d) > tol))
        )
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None, 0
        if self.bland:
            q = int(idx[0])
        else:
            scores = np.abs(d[idx])
            q = int(idx[int(np.argmax(scores))])
        if stat[q] == AT_LOWER:
            sigma = 1
        elif stat[q] == AT_UPPER:
            sigma = -1
        else:
            sigma = 1 if d[q] < 0 else -1
        return q, sigma

    def _pivot(self, q, sigma, xb, lo_b, ub_b, phase1) -> bool:
        w = self._ftran(self._column(q))
        rate = -sigma * w  # dx_basic / d(step)

        # Only rows whose basic value moves with the step can block it; the
        # ratio test runs on those positions of the basis.
        rows = np.flatnonzero((rate > PIVOT_TOL) | (rate < -PIVOT_TOL))
        r_rate, r_xb, r_lo, r_ub = rate[rows], xb[rows], lo_b[rows], ub_b[rows]
        r_basic = self.basic[rows]
        lo_fin, ub_fin = self.lb_finite[r_basic], self.ub_finite[r_basic]
        ratios = np.full(rows.size, np.inf)
        to = np.zeros(rows.size, dtype=np.int8)
        inc = r_rate > PIVOT_TOL
        dec = r_rate < -PIVOT_TOL
        if phase1:
            below = r_xb < r_lo - FEAS_TOL
            above = r_xb > r_ub + FEAS_TOL
            feas = ~below & ~above
            sel = below & inc
            ratios[sel] = (r_lo[sel] - r_xb[sel]) / r_rate[sel]
            to[sel] = AT_LOWER
            sel = above & dec
            ratios[sel] = (r_ub[sel] - r_xb[sel]) / r_rate[sel]
            to[sel] = AT_UPPER
            sel = feas & dec & lo_fin
            ratios[sel] = (r_xb[sel] - r_lo[sel]) / -r_rate[sel]
            to[sel] = AT_LOWER
            sel = feas & inc & ub_fin
            ratios[sel] = (r_ub[sel] - r_xb[sel]) / r_rate[sel]
            to[sel] = AT_UPPER
        else:
            sel = dec & lo_fin
            ratios[sel] = (r_xb[sel] - r_lo[sel]) / -r_rate[sel]
            to[sel] = AT_LOWER
            sel = inc & ub_fin
            ratios[sel] = (r_ub[sel] - r_xb[sel]) / r_rate[sel]
            to[sel] = AT_UPPER
        ratios = np.maximum(ratios, 0.0)

        limit = float(ratios.min()) if rows.size else np.inf
        self_range = self.ub[q] - self.lb[q]
        if np.isfinite(self_range) and self_range < limit - RATIO_TIE:
            step = self_range
            self._track_stall(step)
            self.x[self.basic] = xb + rate * step
            self.x[q] += sigma * step
            self.status[q] = AT_UPPER if sigma > 0 else AT_LOWER
            return True
        if not np.isfinite(limit):
            return False  # unbounded direction

        cands = np.flatnonzero(ratios <= limit + RATIO_TIE)
        weights = np.abs(w[rows[cands]])
        heavy = cands[weights >= weights.max() - 1e-12]
        k = int(heavy[int(np.argmin(r_basic[heavy]))])
        block = int(rows[k])

        step = max(float(ratios[k]), 0.0)
        self._track_stall(step)
        self.x[self.basic] = xb + rate * step
        self.x[q] += sigma * step

        leave = int(self.basic[block])
        self.status[leave] = to[k]
        self.x[leave] = self.lb[leave] if to[k] == AT_LOWER else self.ub[leave]
        self.status[q] = BASIC
        self.basic[block] = q

        piv = w[block]
        nz = np.flatnonzero(np.abs(w) > 1e-13)
        nz = nz[nz != block]
        self.etas.append((block, nz, w[nz].copy(), piv))
        if len(self.etas) >= REFACTOR_EVERY:
            self._refactor()
        return True

    def _track_stall(self, step):
        if step <= 1e-12:
            self.stall += 1
            if self.stall > STALL_LIMIT:
                self.bland = True
        else:
            self.stall = 0
