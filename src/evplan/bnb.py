"""Branch and bound over the bounded-simplex LP relaxation.

Node selection is best-first on LP bounds with deterministic tie-breaking
(lowest node id), extended with plunging: after expanding a node, the
search keeps diving into the child on the rounded side of the branching
variable until it hits an integral point, an infeasibility, or a dominated
bound. Plunging is what produces incumbents on the large planning models;
pure best-first exploration would grow the tree breadth-first and reach
its first integral leaf far too late. The sibling of each dive step is
queued lazily with its parent bound, which stays a valid lower bound, so
the reported global bound is exact and non-decreasing.

Branching picks the most-fractional binary, ties to the lowest column
index. All decisions are deterministic for a fixed model and config.

A node is the list of binary fixes on its path from the root. A column
is fixed at most once on a path, since the search branches only on a
fractional column and pins only unfixed ones, so a node's bounds are the
root bounds with each fix applied once, in any order.
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .milp import MilpModel
from .presolve import presolve
from .simplex import BoundedSimplex

INT_TOL = 1e-6
BULK_TOL = 1e-4
KEY_TIE = 1e-9
PLUNGE_CAP = 20000
PLUNGE_BACKTRACKS = 400
PLUNGE_BACKTRACKS_INCUMBENT = 48
LOG_INTERVAL_S = 10.0  # seconds between progress records at INFO

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    gap: float = 0.10
    abs_gap: float = 1e-9
    node_limit: int | None = None
    time_limit_s: float | None = None

    def __post_init__(self):
        if not (0 <= self.gap < np.inf and 0 <= self.abs_gap < np.inf):
            raise ParameterError("gaps must be finite and non-negative")
        if self.node_limit is not None and not self.node_limit > 0:
            raise ParameterError("node limit must be positive")
        if self.time_limit_s is not None and not 0 < self.time_limit_s < np.inf:
            raise ParameterError("time limit must be positive and finite")


@dataclass
class MilpSolveResult:
    status: str  # optimal | gap-optimal | infeasible | unbounded | limit
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float = -np.inf
    gap: float | None = None
    nodes: int = 0
    lp_iterations: int = 0
    runtime_s: float = 0.0
    size: tuple[int, int, int] = (0, 0, 0)  # rows, columns, nonzeros of the model
    presolved_size: tuple[int, int, int] | None = None  # None: presolve ended the solve


class _Node:
    """A search node: the binary fixes on its path from the root.

    ``cols``/``vals`` are the fixes root first; ``col``/``val`` is the
    node's own fix (``col`` -1: none), which a branch child or a flip
    sibling adds to its parent's path. A dive step stores its path once;
    the flip sibling of the step's k-th fix holds a prefix view of it. Each
    column appears at most once on a path, so applying a fix is one
    ``max``/``min`` against the root bound, which keeps the root value on a
    tie (0.0 against -0.0).
    """

    __slots__ = ("id", "key", "cols", "vals", "col", "val", "frac_col", "frac_val", "evaluated")

    def __init__(self, id, key, cols, vals, col=-1, val=0.0):
        self.id = id
        self.key = key
        self.cols = cols
        self.vals = vals
        self.col = col
        self.val = val
        self.frac_col = -1
        self.frac_val = 0.0
        self.evaluated = False

    def path(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns and values of every fix on the path, root first."""
        if self.col < 0:
            return self.cols, self.vals
        return np.append(self.cols, self.col), np.append(self.vals, self.val)

    def bounds(self, lb0, ub0):
        """The root bounds with every fix on the path applied."""
        cols, vals = self.path()
        lb, ub = lb0.copy(), ub0.copy()
        lb[cols] = np.where(vals > lb0[cols], vals, lb0[cols])
        ub[cols] = np.where(vals < ub0[cols], vals, ub0[cols])
        return lb, ub

    def __lt__(self, other):
        return self.id < other.id


class _Unbounded(Exception):
    """A node LP whose objective falls without limit."""


def _relative_gap(incumbent: float, bound: float) -> float:
    return (incumbent - bound) / max(1.0, abs(incumbent))


class _Search:
    def __init__(self, model: MilpModel, config: SolverConfig):
        self.config = config
        self.started = time.monotonic()
        self.size = (model.n_rows, model.n_cols, model.A.nnz)
        self.presolved_size = None
        self.incumbent_x = None
        self.incumbent_obj = np.inf
        self.best_bound = -np.inf
        self.nodes_done = 0
        self.lp_iters = 0
        self.pre = presolve(model)
        if self.pre.status != "reduced":
            return
        red = self.pre.reduced
        self.red = red
        self.presolved_size = (red.n_rows, red.n_cols, red.A.nnz)
        self.engine = BoundedSimplex(red.A, red.rhs, red.senses, red.obj)
        self.int_cols = np.flatnonzero(red.is_int)
        self.next_id = 0
        self.heap: list[tuple[float, _Node]] = []
        self.log_progress = log.isEnabledFor(logging.INFO)
        self.last_log = self.started
        self.eval_counts = {"fractional": 0, "infeasible": 0, "integral": 0}

    # -- helpers -----------------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def out_of_budget(self) -> str | None:
        """The limit the search has reached, if any."""
        cfg = self.config
        if cfg.node_limit is not None and self.nodes_done >= cfg.node_limit:
            return "node limit"
        if cfg.time_limit_s is not None and self.elapsed() > cfg.time_limit_s:
            return "time limit"
        return None

    def evaluate(self, node: _Node):
        """Solve the node's LP. Returns the outcome and, unless infeasible,
        the LP's (x, reduced costs, lb, ub) for a dive step below it."""
        lb, ub = node.bounds(self.red.lb, self.red.ub)
        res = self.engine.solve(lb, ub)
        self.lp_iters += res.iterations
        self.nodes_done += 1
        node.evaluated = True
        if res.status == "infeasible":
            self.eval_counts["infeasible"] += 1
            return "infeasible", None
        if res.status == "unbounded":
            raise _Unbounded
        if res.status != "optimal":
            raise RuntimeError(f"node LP ended with status {res.status}")
        node.key = max(node.key, res.objective + self.red.obj_offset)
        lp = res.x, res.reduced_costs, lb, ub
        col = self._fractional_col(res.x)
        if col < 0:
            self.eval_counts["integral"] += 1
            self._accept(res.x)
            return "integral", lp
        self.eval_counts["fractional"] += 1
        node.frac_col, node.frac_val = col, float(res.x[col])
        return "fractional", lp

    def _fractional_col(self, x) -> int:
        if self.int_cols.size == 0:
            return -1
        vals = x[self.int_cols]
        dist = np.abs(vals - np.round(vals))
        worst = int(np.argmax(dist))  # first max = lowest column on ties
        if dist[worst] <= INT_TOL:
            return -1
        return int(self.int_cols[worst])

    def _accept(self, x):
        xi = x.copy()
        xi[self.int_cols] = np.round(xi[self.int_cols])
        obj = float(self.red.obj @ xi) + self.red.obj_offset
        if obj < self.incumbent_obj - 1e-12:
            self.incumbent_x = xi
            self.incumbent_obj = obj

    def _fathomed(self, key: float) -> bool:
        return self.incumbent_x is not None and key >= self.incumbent_obj - self.config.abs_gap

    def _gap_reached(self) -> bool:
        if self.incumbent_x is None:
            return False
        if self.incumbent_obj - self.best_bound <= self.config.abs_gap:
            return True
        return _relative_gap(self.incumbent_obj, self.best_bound) <= self.config.gap

    def _log(self):
        if not self.log_progress:
            return
        now = time.monotonic()
        if now - self.last_log < LOG_INTERVAL_S:
            return
        self.last_log = now
        inc = "-" if self.incumbent_x is None else f"{self.incumbent_obj:.1f}"
        log.info(
            "[bnb] %6.0fs nodes=%d open=%d bound=%.1f incumbent=%s evals=%s",
            self.elapsed(), self.nodes_done, len(self.heap), self.best_bound, inc, dict(self.eval_counts),
        )

    # -- expansion ----------------------------------------------------------

    def _branch_pair(self, parent: _Node, col: int, val: float):
        """Two-way children on one binary, fixed at 0 and at 1; the rounded
        side first."""
        cols, vals = parent.path()
        first, second = (1.0, 0.0) if val > 0.5 else (0.0, 1.0)
        dive = _Node(self.next_id, parent.key, cols, vals, col, first)
        rest = _Node(self.next_id + 1, parent.key, cols, vals, col, second)
        self.next_id += 2
        return dive, rest

    def _dive_chain(self, parent: _Node, lp):
        """One dive step below ``parent``, from its LP result ``lp``.

        Every unfixed binary within BULK_TOL of an integer is pinned at its
        current value (drifting integral values is what ruins dive leaves);
        when nothing is pinnable the least-fractional binary is rounded.
        Each fix leaves its flip-side sibling pending with a key lifted by
        the parent's reduced cost (a valid bound increase for forcing the
        column away from its LP value), so the step is an ordinary sequence
        of two-way branches and the search stays exhaustive.
        """
        x, d, lb, ub = lp
        vals = x[self.int_cols]
        dist = np.abs(vals - np.round(vals))
        unfixed = lb[self.int_cols] < ub[self.int_cols]
        near = unfixed & (dist <= BULK_TOL)
        if near.any():
            fix_cols = self.int_cols[near]
        else:
            frac = dist > INT_TOL
            order = int(np.argmin(np.where(frac, dist, np.inf)))
            fix_cols = self.int_cols[order : order + 1]
        fix_vals = np.round(x[fix_cols])
        lift = np.where(1.0 - fix_vals > 0.5, d[fix_cols], -d[fix_cols])
        keys = parent.key + np.where(lift > 0.0, lift, 0.0)
        cols, vals = parent.path()
        n = cols.size
        cols, vals = np.concatenate((cols, fix_cols)), np.concatenate((vals, fix_vals))
        siblings = [
            _Node(self.next_id + k, key, cols[: n + k], vals[: n + k], col, 1.0 - val)
            for k, (col, val, key) in enumerate(zip(fix_cols.tolist(), fix_vals.tolist(), keys.tolist()))
        ]
        self.next_id += fix_cols.size
        chain = _Node(self.next_id, parent.key, cols, vals)
        self.next_id += 1
        return chain, siblings

    def _plunge(self, node: _Node):
        """Depth-first dive from an evaluated fractional node.

        The first step branches the node on its most-fractional binary (the
        tree expansion rule); the dive then deepens by committing
        near-integral variables in bulk, falling back to flip-side siblings
        when a child closes, with a bounded number of full backtracks.
        Dives either reach an integral leaf (the incumbent source of this
        solver), die in an infeasible pocket, or hand their untouched
        siblings back to the best-first queue.
        """
        stack: list[_Node] = []  # pending flip-side siblings along the path
        dive, rest = self._branch_pair(node, node.frac_col, node.frac_val)
        stack.append(rest)
        cur, lp = self._eval_or_backtrack(dive, stack)
        backtracks = 0
        steps = 0
        while cur is not None and steps < PLUNGE_CAP:
            if self.out_of_budget():
                heapq.heappush(self.heap, (cur.key, cur))
                break
            steps += 1
            chain, siblings = self._dive_chain(cur, lp)
            stack.extend(siblings)
            status, chain_lp = self.evaluate(chain)
            if status == "fractional" and not self._fathomed(chain.key):
                cur, lp = chain, chain_lp
                continue
            if status == "integral":
                break
            backtracks += 1
            limit = (
                PLUNGE_BACKTRACKS_INCUMBENT
                if self.incumbent_x is not None
                else PLUNGE_BACKTRACKS
            )
            if backtracks > limit:
                break
            cur, lp = self._eval_or_backtrack(None, stack)
        for rest in stack:
            if not rest.evaluated:
                heapq.heappush(self.heap, (rest.key, rest))

    def _eval_or_backtrack(self, first: _Node | None, stack: list[_Node]):
        """Evaluate ``first`` and, while it closes, pull siblings LIFO."""
        cand = first
        while True:
            if cand is None:
                if not stack:
                    return None, None
                cand = stack.pop()
                if self._fathomed(cand.key):
                    cand.evaluated = True  # closed by bound, not re-queued
                    cand = None
                    continue
            status, lp = self.evaluate(cand)
            if status == "fractional" and not self._fathomed(cand.key):
                return cand, lp
            if self.out_of_budget():
                return None, None
            cand = None

    # -- main loop ------------------------------------------------------------

    def run(self) -> MilpSolveResult:
        try:
            stop = self._search()
        except _Unbounded:
            stop = "unbounded"
        result = self._finish(stop)
        inc = "-" if self.incumbent_x is None else f"{self.incumbent_obj:.1f}"
        basis = "-" if self.pre.status != "reduced" else "dense" if self.engine.dense else "sparse"
        log.info(
            "[bnb] stop=%s nodes=%d lp_iterations=%d bound=%.1f incumbent=%s basis=%s",
            stop, self.nodes_done, self.lp_iters, self.best_bound, inc, basis,
        )
        return result

    def _search(self) -> str:
        """Run the search; returns why it stopped: gap reached, node limit,
        time limit, tree exhausted, infeasible or unbounded."""
        if self.pre.status != "reduced":
            return self.pre.status

        root = _Node(self.next_id, -np.inf, np.empty(0, dtype=np.intp), np.empty(0))
        self.next_id += 1
        status, _lp = self.evaluate(root)
        if status == "infeasible":
            return "infeasible"
        self.best_bound = root.key
        if status == "integral":
            self.best_bound = self.incumbent_obj
            return "tree exhausted"
        self._plunge(root)

        stop = "tree exhausted"
        while self.heap:
            self.best_bound = max(self.best_bound, self.heap[0][0])
            if self._gap_reached():
                stop = "gap reached"
                break
            limit = self.out_of_budget()
            if limit:
                stop = limit
                break
            self._log()
            key, node = heapq.heappop(self.heap)
            if self._fathomed(key):
                continue
            if not node.evaluated:
                status, _lp = self.evaluate(node)
                if status != "fractional":
                    continue
                if self._fathomed(node.key):
                    continue
                if self.heap and node.key > self.heap[0][0] + KEY_TIE:
                    heapq.heappush(self.heap, (node.key, node))
                    continue
            self._plunge(node)

        if self.incumbent_x is None:
            return "infeasible" if stop == "tree exhausted" else stop
        if stop == "tree exhausted":
            self.best_bound = self.incumbent_obj
        # Open nodes above the incumbent cannot hold anything better, so the
        # proven bound never exceeds the incumbent value.
        self.best_bound = min(self.best_bound, self.incumbent_obj)
        return stop

    def _finish(self, stop: str) -> MilpSolveResult:
        if stop == "unbounded":
            return self._result(stop, nodes=self.nodes_done, lp_iterations=self.lp_iters)
        if self.incumbent_x is None:
            status = "limit" if stop in ("node limit", "time limit") else "infeasible"
            return self._result(
                status, bound=self.best_bound, nodes=self.nodes_done, lp_iterations=self.lp_iters
            )
        gap = max(_relative_gap(self.incumbent_obj, self.best_bound), 0.0)
        if self.incumbent_obj - self.best_bound <= self.config.abs_gap:
            status, gap = "optimal", 0.0
        elif gap <= self.config.gap:
            status = "gap-optimal"
        else:
            status = "limit"
        return self._result(
            status,
            x=self.pre.postsolve(self.incumbent_x),
            objective=self.incumbent_obj,
            bound=self.best_bound,
            gap=gap,
            nodes=self.nodes_done,
            lp_iterations=self.lp_iters,
        )

    def _result(self, status: str, **fields) -> MilpSolveResult:
        return MilpSolveResult(
            status=status,
            runtime_s=self.elapsed(),
            size=self.size,
            presolved_size=self.presolved_size,
            **fields,
        )


def solve_bnb(model: MilpModel, config: SolverConfig | None = None) -> MilpSolveResult:
    """Minimize the MILP; deterministic for a fixed model and config.

    Status ``unbounded`` (no x) means the objective falls without limit on
    the LP relaxation or on a column presolve found in no row. Like an LP
    solver's unbounded status, it does not prove that the model has a
    feasible point."""
    return _Search(model, config or SolverConfig()).run()
