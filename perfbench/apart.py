"""Checks that run in a child process, so that their memory stays out of
the benchmark process's ``peak_rss_mb``: the HiGHS reference solve
(``scipy.optimize.milp``) and the re-parse of exported MPS files.

    python3 perfbench/apart.py highs 1.0 a.npz [b.npz ...]        # "lower upper" per model
    python3 perfbench/apart.py mps label a.npz a.mps [label ...]  # the problems, as JSON
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def save_model(model, path) -> None:
    """The built model's arrays; the matrix is written as it is held (CSR),
    without a copy."""
    A = model.A.tocsr()
    np.savez(path, indptr=A.indptr, indices=A.indices, data=A.data, shape=A.shape,
             senses=np.asarray(model.row_sense), rhs=model.rhs, lb=model.lb, ub=model.ub,
             obj=model.obj, is_int=model.is_int)


def load_model(path) -> SimpleNamespace:
    """What ``save_model`` wrote, with the attributes the checks read."""
    import scipy.sparse as sp

    m = np.load(path)
    shape = tuple(int(x) for x in m["shape"])
    return SimpleNamespace(
        A=sp.csr_matrix((m["data"], m["indices"], m["indptr"]), shape=shape),
        n_rows=shape[0], n_cols=shape[1], row_sense=[str(s) for s in m["senses"]],
        rhs=m["rhs"], lb=m["lb"], ub=m["ub"], obj=m["obj"], is_int=m["is_int"])


def _child(*args) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE), str(SRC)])}
    proc = subprocess.run([sys.executable, str(Path(__file__)), *map(str, args)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} check failed:\n{proc.stderr}")
    return proc.stdout


def highs_references(saved, time_limit_s: float) -> list[tuple[float, float]]:
    """(proven lower bound, incumbent) of HiGHS on each saved model, in one
    child process; the incumbent is +inf when HiGHS finds none within the
    time limit."""
    if not saved:
        return []
    lines = _child("highs", time_limit_s, *saved).splitlines()
    return [(float(lower), float(upper)) for lower, upper in map(str.split, lines)]


def mps_problems(cases) -> list[str]:
    """``checks.mps_problems`` on each (label, saved model, MPS file), in
    one child process."""
    args = [str(x) for case in cases for x in case]
    return json.loads(_child("mps", *args)) if args else []


def solve_highs(path, time_limit_s: float) -> tuple[float, float]:
    from scipy.optimize import Bounds, LinearConstraint, milp

    m = load_model(path)
    senses = np.asarray(m.row_sense)
    lo = np.where(senses == "L", -np.inf, m.rhs)
    hi = np.where(senses == "G", np.inf, m.rhs)
    res = milp(
        m.obj,
        constraints=LinearConstraint(m.A, lo, hi),
        integrality=m.is_int.astype(int),
        bounds=Bounds(m.lb, m.ub),
        options={"time_limit": time_limit_s, "mip_rel_gap": 0.0, "disp": False},
    )
    upper = float(res.fun) if res.x is not None else np.inf
    lower = getattr(res, "mip_dual_bound", None)
    if lower is None or not np.isfinite(lower):
        lower = upper if res.status == 0 else -np.inf
    return float(lower), upper


def main(argv) -> int:
    kind, *args = argv
    if kind == "highs":
        for model in args[1:]:
            print(*solve_highs(model, float(args[0])))
    elif kind == "mps":
        import checks

        problems = []
        for label, model, mps in zip(args[0::3], args[1::3], args[2::3], strict=True):
            problems += checks.mps_problems(label, load_model(model), mps)
        print(json.dumps(problems))
    else:
        raise SystemExit(f"unknown check {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
