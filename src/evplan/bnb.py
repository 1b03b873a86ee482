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
    status: str  # optimal | gap-optimal | infeasible | limit
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float = -np.inf
    gap: float | None = None
    nodes: int = 0
    lp_iterations: int = 0
    runtime_s: float = 0.0
    size: tuple[int, int, int] = (0, 0, 0)  # rows, columns, nonzeros of the model
    presolved_size: tuple[int, int, int] | None = None  # None: presolve proved infeasibility


class _Node:
    """A search node and its bound changes relative to ``parent``.

    A node tightens at most one column by its own branch (``branch_col``,
    applied first), then pins ``fix_cols[fix_from:]`` at ``fix_vals[fix_from:]``. A
    dive step stores its pinned columns once, deepest first; each sibling
    along the step shares those arrays from its own position on. Changes
    apply deepest first, as a walk up a chain of single-column branches
    would apply them, and the walk takes one step per dive step, not one
    per pinned column.
    """

    __slots__ = (
        "id", "key", "parent", "branch_col", "branch_lo", "branch_hi",
        "fix_cols", "fix_vals", "fix_from", "frac_col", "frac_val", "evaluated",
    )

    def __init__(self, id, key, parent, branch_col=-1, branch_lo=0.0, branch_hi=1.0,
                 fix_cols=None, fix_vals=None, fix_from=0):
        self.id = id
        self.key = key
        self.parent = parent
        self.branch_col = branch_col
        self.branch_lo = branch_lo
        self.branch_hi = branch_hi
        self.fix_cols = fix_cols
        self.fix_vals = fix_vals
        self.fix_from = fix_from
        self.frac_col = -1
        self.frac_val = 0.0
        self.evaluated = False

    def bounds(self, lb0, ub0):
        """Bounds after every change from this node up to the root."""
        cols, lo, hi = [], [], []
        node = self
        while node is not None:
            if node.branch_col >= 0:
                cols.append((node.branch_col,))
                lo.append((node.branch_lo,))
                hi.append((node.branch_hi,))
            if node.fix_cols is not None:
                vals = node.fix_vals[node.fix_from:]
                cols.append(node.fix_cols[node.fix_from:])
                lo.append(vals)
                hi.append(vals)
            node = node.parent
        lb, ub = lb0.copy(), ub0.copy()
        if cols:
            cols = np.concatenate(cols)
            _tighten_in_order(lb, cols, np.concatenate(lo), upper=False)
            _tighten_in_order(ub, cols, np.concatenate(hi), upper=True)
        return lb, ub

    def __lt__(self, other):
        return self.id < other.id


def _tighten_in_order(bound, cols, vals, upper):
    """For each ``cols``/``vals`` pair in order, set ``bound[c]`` to
    ``min(bound[c], v)`` (``upper``) or ``max(bound[c], v)``, vectorized.

    ``min`` and ``max`` keep the current value on a tie, so of equal values
    (0.0 and -0.0) the earliest one stays; the stable sort keeps it first
    among the tightest values of each column.
    """
    order = np.lexsort((vals if upper else -vals, cols))
    sorted_cols = cols[order]
    head = np.empty(sorted_cols.size, dtype=bool)
    head[0] = True
    np.not_equal(sorted_cols[1:], sorted_cols[:-1], out=head[1:])
    c, v = sorted_cols[head], vals[order[head]]
    cur = bound[c]
    bound[c] = np.where(v < cur if upper else v > cur, v, cur)


def _dive_nodes(parent: _Node, first_id: int, cols: np.ndarray, vals: np.ndarray,
                keys: np.ndarray) -> tuple[_Node, list[_Node]]:
    """Nodes of one dive step below ``parent`` that pins ``cols`` at ``vals``.

    Ids and keys are those of a chain of single-column branches: sibling k
    (``cols[k]`` at ``1 - vals[k]``, key ``keys[k]``), then link k, each
    link the parent of the next pair. Of the links only the last, the end
    of the chain, is created; the siblings hang from ``parent`` and take
    the links' fixes from the shared arrays.
    """
    rev_cols, rev_vals = cols[::-1], vals[::-1]
    k_all = cols.size
    siblings = [
        _Node(first_id + 2 * k, key, parent, col, 1.0 - val, 1.0 - val, rev_cols, rev_vals, k_all - k)
        for k, (col, val, key) in enumerate(zip(cols.tolist(), vals.tolist(), keys.tolist()))
    ]
    chain = _Node(first_id + 2 * k_all - 1, parent.key, parent, fix_cols=rev_cols, fix_vals=rev_vals)
    return chain, siblings


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
        self.infeasible = self.pre.status == "infeasible"
        if self.infeasible:
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
        self._last_d: np.ndarray | None = None
        self._last_d_node = -1
        self._last_bounds: tuple[np.ndarray, np.ndarray] | None = None

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
        lb, ub = node.bounds(self.red.lb, self.red.ub)
        res = self.engine.solve(lb, ub)
        self.lp_iters += res.iterations
        self.nodes_done += 1
        node.evaluated = True
        if res.status == "infeasible":
            self.eval_counts["infeasible"] += 1
            return "infeasible", None
        if res.status != "optimal":
            raise RuntimeError(f"node LP ended with status {res.status}")
        node.key = max(node.key, res.objective + self.red.obj_offset)
        self._last_d = res.reduced_costs  # valid only while node is current
        self._last_d_node = node.id
        self._last_bounds = lb, ub
        col = self._fractional_col(res.x)
        if col < 0:
            self.eval_counts["integral"] += 1
            self._accept(res.x)
            return "integral", res.x
        self.eval_counts["fractional"] += 1
        node.frac_col, node.frac_val = col, float(res.x[col])
        return "fractional", res.x

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

    def _flip_lifts(self, parent: _Node, cols: np.ndarray, to_one: np.ndarray) -> np.ndarray:
        """Valid bound increases for forcing ``cols`` away from their LP
        values, from the parent's reduced costs (zero when the LP is stale)."""
        if self._last_d is None or self._last_d_node != parent.id:
            return np.zeros(cols.size)
        d = self._last_d[cols]
        lift = np.where(to_one, d, -d)
        return np.where(lift > 0.0, lift, 0.0)

    def _branch_pair(self, parent: _Node, col: int, val: float):
        """Two-way children on one column; the rounded side first."""
        floor = float(np.floor(val + INT_TOL))
        down = (float(self.red.lb[col]), floor)
        up = (floor + 1.0, float(self.red.ub[col]))
        first, second = (up, down) if val - floor > 0.5 else (down, up)
        dive = _Node(self.next_id, parent.key, parent, col, *first)
        self.next_id += 1
        rest = _Node(self.next_id, parent.key, parent, col, *second)
        self.next_id += 1
        return dive, rest

    def _dive_chain(self, parent: _Node, x: np.ndarray):
        """One dive step: a chain of single-column fixes.

        Every unfixed binary within BULK_TOL of an integer is pinned at its
        current value (drifting integral values is what ruins dive leaves);
        when nothing is pinnable the least-fractional binary is rounded.
        Each fix leaves its flip-side sibling pending with a reduced-cost
        lifted key, so the chain is an ordinary sequence of two-way
        branches and the search stays exhaustive.
        """
        if self._last_d_node != parent.id:
            raise RuntimeError("dive step from a node other than the last LP solved")
        lb, ub = self._last_bounds
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
        keys = parent.key + self._flip_lifts(parent, fix_cols, 1.0 - fix_vals > 0.5)
        chain, siblings = _dive_nodes(parent, self.next_id, fix_cols, fix_vals, keys)
        self.next_id += 2 * fix_cols.size
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
        cur, x = self._eval_or_backtrack(dive, stack)
        backtracks = 0
        steps = 0
        while cur is not None and steps < PLUNGE_CAP:
            if self.out_of_budget():
                heapq.heappush(self.heap, (cur.key, cur))
                break
            steps += 1
            chain, siblings = self._dive_chain(cur, x)
            stack.extend(siblings)
            status, cx = self.evaluate(chain)
            if status == "fractional" and not self._fathomed(chain.key):
                cur, x = chain, cx
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
            cur, x = self._eval_or_backtrack(None, stack)
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
            status, x = self.evaluate(cand)
            if status == "fractional" and not self._fathomed(cand.key):
                return cand, x
            if self.out_of_budget():
                return None, None
            cand = None

    # -- main loop ------------------------------------------------------------

    def run(self) -> MilpSolveResult:
        stop = self._search()
        result = self._finish(stop)
        inc = "-" if self.incumbent_x is None else f"{self.incumbent_obj:.1f}"
        log.info(
            "[bnb] stop=%s nodes=%d lp_iterations=%d bound=%.1f incumbent=%s",
            stop, self.nodes_done, self.lp_iters, self.best_bound, inc,
        )
        return result

    def _search(self) -> str:
        """Run the search; returns why it stopped: gap reached, node limit,
        time limit, tree exhausted or infeasible."""
        if self.infeasible:
            return "infeasible"

        root = _Node(self.next_id, -np.inf, None)
        self.next_id += 1
        status, _x = self.evaluate(root)
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
                status, _x = self.evaluate(node)
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
    """Minimize the MILP; deterministic for a fixed model and config."""
    return _Search(model, config or SolverConfig()).run()
