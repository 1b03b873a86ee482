"""Fixed-format MPS export and external-solution import.

Columns are emitted in builder order under generated 8-character names
(C0000001, ...), rows as R0000001..., with binaries wrapped in
INTORG/INTEND markers. A compact JSON sidecar maps the generated names
back to (family, indices) so external solutions can be joined with the
model.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import SolutionImportError
from .milp import MilpModel

OBJECTIVE = "COST"
MODEL_NAME = "EVPLAN"
IMPORT_TOL = 1e-6


def _names(prefix: str, n: int) -> list[str]:
    """Generated names ``<prefix>0000001`` ... for ``n`` rows or columns."""
    return [f"{prefix}{k:07d}" for k in range(1, n + 1)]


def _marker(k: int, opens: bool) -> str:
    return f"    MARKER{k:04d}  'MARKER'                 '{'INTORG' if opens else 'INTEND'}'\n"


def export_mps(model: MilpModel, path: str | Path) -> Path:
    """Write the model plus a ``<path>.columns.json`` sidecar; returns the
    sidecar's path."""
    path = Path(path)
    rows, cols = _names("R", model.n_rows), _names("C", model.n_cols)
    # The objective is row 0 of the matrix, so every column's entries are
    # one slice: objective first, then its rows in order (tocsc sorts them).
    fields = [f"{name:<8}  " for name in [OBJECTIVE] + rows]
    A = sp.vstack([sp.csr_matrix(model.obj), model.A], format="csc")
    empty = [f"{fields[0]}{0.0:12.12G}"]
    with open(path, "w") as fh:
        fh.write(f"NAME          {MODEL_NAME}\nROWS\n N  {OBJECTIVE}\n")
        fh.writelines(f" {sense}  {name}\n" for sense, name in zip(model.row_sense, rows))
        fh.write("COLUMNS\n")
        marker, in_int = 0, False
        ptr = A.indptr.tolist()
        for cn, integral, p0, p1 in zip(cols, model.is_int.tolist(), ptr, ptr[1:]):
            if integral != in_int:
                in_int = integral
                fh.write(_marker(marker, in_int))
                marker += 1
            cells = [
                f"{fields[i]}{v:12.12G}"
                for i, v in zip(A.indices[p0:p1].tolist(), A.data[p0:p1].tolist())
            ] or empty
            fh.writelines(f"    {cn}  {'   '.join(cells[a:a + 2])}\n" for a in range(0, len(cells), 2))
        if in_int:
            fh.write(_marker(marker, False))

        fh.write("RHS\n")
        nz = np.flatnonzero(model.rhs != 0.0)
        fh.writelines(
            f"    RHS       {rows[i]}  {b:12.12G}\n" for i, b in zip(nz.tolist(), model.rhs[nz].tolist())
        )
        fh.write("BOUNDS\n")
        for cn, lo, hi, integral in zip(cols, model.lb.tolist(), model.ub.tolist(), model.is_int.tolist()):
            if lo == hi:
                fh.write(f" FX BND       {cn}  {lo:12.12G}\n")
            elif lo == -math.inf and hi == math.inf:
                fh.write(f" FR BND       {cn}\n")
            else:
                if lo == -math.inf:
                    fh.write(f" MI BND       {cn}\n")
                elif lo != 0.0:
                    fh.write(f" LO BND       {cn}  {lo:12.12G}\n")
                if hi != math.inf:
                    fh.write(f" UP BND       {cn}  {hi:12.12G}\n")
                elif integral or lo != 0.0:
                    fh.write(f" PL BND       {cn}\n")
        fh.write("ENDATA\n")

    sidecar = {
        "objective": OBJECTIVE,
        "columns": {
            cn: {"name": name, "family": meta[0] if meta else None, "indices": meta[1] if meta else None}
            for cn, name, meta in zip(cols, model.col_names, model.col_meta)
        },
        "rows": dict(zip(rows, model.row_names)),
    }
    sidecar_path = path.with_suffix(path.suffix + ".columns.json")
    sidecar_path.write_text(json.dumps(sidecar) + "\n")
    return sidecar_path


def parse_mps(path: str | Path) -> dict:
    """Re-parse an exported file (structure check / round-trip tests)."""
    rows: list[tuple[str, str]] = []
    objective = None
    cols: dict[str, dict] = {}
    rhs: dict[str, float] = {}
    bounds: dict[str, list] = {}
    integral: set[str] = set()
    section = None
    in_int = False
    for raw in Path(path).read_text().splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw.startswith(" "):
            section = raw.split()[0]
            continue
        parts = raw.split()
        if section == "ROWS":
            if parts[0] == "N":
                objective = parts[1]
            else:
                rows.append((parts[0], parts[1]))
        elif section == "COLUMNS":
            if len(parts) >= 3 and parts[2] == "'INTORG'":
                in_int = True
                continue
            if len(parts) >= 3 and parts[2] == "'INTEND'":
                in_int = False
                continue
            name = parts[0]
            entry = cols.setdefault(name, {"entries": {}})
            if in_int:
                integral.add(name)
            for k in range(1, len(parts) - 1, 2):
                entry["entries"][parts[k]] = float(parts[k + 1])
        elif section == "RHS":
            rhs[parts[1]] = float(parts[2])
        elif section == "BOUNDS":
            bounds.setdefault(parts[2], []).append(
                (parts[0], float(parts[3]) if len(parts) > 3 else None)
            )
    return {
        "objective": objective,
        "rows": rows,
        "columns": cols,
        "rhs": rhs,
        "bounds": bounds,
        "integral": integral,
    }


def write_solution_file(model: MilpModel, x: np.ndarray, path: str | Path) -> None:
    """``column-name value`` lines in the exported naming scheme."""
    with open(path, "w") as fh:
        fh.writelines(f"{cn} {v:.12g}\n" for cn, v in zip(_names("C", model.n_cols), np.asarray(x).tolist()))


def import_solution(model: MilpModel, path: str | Path) -> np.ndarray:
    """Read ``name value`` lines, map onto the model, verify feasibility.

    Returns the assignment vector; the objective should be recomputed by
    the caller from ``model.obj`` (it never trusts the solution file).
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if len(parts) != 2:
            raise SolutionImportError(f"{where}: expected 'name value'")
        name, text = parts
        try:
            value = float(text)
        except ValueError:
            raise SolutionImportError(f"{where}: value {text!r} is not a number") from None
        if not math.isfinite(value):
            raise SolutionImportError(f"{where}: value {text!r} is not finite")
        if name in values:
            raise SolutionImportError(f"{where}: column {name} given twice")
        values[name] = value

    cols = _names("C", model.n_cols)
    unknown = sorted(values.keys() - set(cols))
    if unknown:
        raise SolutionImportError(f"unknown column names: {', '.join(unknown[:5])}")
    missing = [cn for cn in cols if cn not in values]
    if missing:
        raise SolutionImportError(
            f"solution file misses {len(missing)} column(s), first: {missing[0]}"
        )
    x = np.array([values[cn] for cn in cols])
    issues = model.check_point(x, tol=IMPORT_TOL)
    if issues:
        raise SolutionImportError(
            f"imported point violates the model ({len(issues)} issue(s))",
            violations=issues,
        )
    return x
