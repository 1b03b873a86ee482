"""Fixed-format MPS export and external-solution import.

Columns are emitted in builder order under generated 8-character names
(C0000001, ...), rows as R0000001..., with binaries wrapped in
INTORG/INTEND markers. A compact JSON sidecar maps the generated names
back to (family, indices) so external solutions can be joined with the
model. It is written from the model's label records, one formatted string
per entry, and holds the bytes of one ``json.dumps`` of the whole mapping.

A model holds few distinct numbers: a 50-vehicle model has about 6,000
among 146,000 matrix entries. So the writer formats each distinct value
once, keyed on its bit pattern, into a value table. The COLUMNS, RHS and
BOUNDS sections then build their lines by indexing into precomputed
strings (row fields, column heads, markers, values) and are joined and
written ``CHUNK`` records at a time, so no string per matrix entry is
held for the whole model. The bytes are those of formatting every entry
on its own.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import SolutionImportError
from .milp import Family, MilpModel

OBJECTIVE = "COST"
MODEL_NAME = "EVPLAN"
CHUNK = 4096  # records joined per write: bounds the strings alive at once
BOUND_KINDS = np.array([f" {kind} BND       " for kind in ("FX", "FR", "MI", "LO", "UP", "PL")], dtype=object)


def _names(prefix: str, n: int) -> list[str]:
    """Generated names ``<prefix>0000001`` ... for ``n`` rows or columns."""
    return [f"{prefix}{k:07d}" for k in range(1, n + 1)]


def _marker(k: int, opens: bool) -> str:
    return f"    MARKER{k:04d}  'MARKER'                 '{'INTORG' if opens else 'INTEND'}'\n"


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


class _ValueStrings:
    """Each distinct float among ``values`` formatted once with ``spec``.

    Values are keyed on their bit pattern, so ``-0.0`` and ``0.0`` keep
    their own strings. Calling the table on any of those values returns
    their strings as an object array.
    """

    def __init__(self, values: np.ndarray, spec: str):
        # np.unique would hash here, which takes several times as long as
        # sorting the 64-bit patterns.
        bits = np.sort(_bits(values))
        first = np.ones(len(bits), dtype=bool)
        first[1:] = bits[1:] != bits[:-1]
        self.keys = bits[first]
        self.strings = np.array(
            [format(v, spec) for v in self.keys.view(np.float64).tolist()], dtype=object
        )

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.strings[np.searchsorted(self.keys, _bits(values))]


def _write_records(fh, n: int, parts_of) -> None:
    """Write ``n`` records, ``CHUNK`` per write. ``parts_of(a, b)`` gives
    the parts of records ``a`` to ``b - 1``: object arrays holding one
    string per record, or a string shared by all; a record is its parts
    concatenated."""
    for a in range(0, n, CHUNK):
        b = min(a + CHUNK, n)
        parts = parts_of(a, b)
        pieces = [""] * ((b - a) * len(parts))
        for k, part in enumerate(parts):
            pieces[k::len(parts)] = [part] * (b - a) if isinstance(part, str) else part.tolist()
        fh.write("".join(pieces))


def export_mps(model: MilpModel, path: str | Path) -> Path:
    """Write the model plus a ``<path>.columns.json`` sidecar; returns the
    sidecar's path."""
    path = Path(path)
    rows, cols = _names("R", model.n_rows), _names("C", model.n_cols)
    with open(path, "w") as fh:
        _write_mps(fh, model, rows, cols)

    sidecar_path = path.with_suffix(path.suffix + ".columns.json")
    sidecar_path.write_text(_sidecar_text(model, rows, cols))
    return sidecar_path


def _escape(text: str) -> str:
    """``text`` as it stands between the quotes of a JSON string."""
    return json.dumps(text)[1:-1]


def _sidecar_text(model: MilpModel, rows: list[str], cols: list[str]) -> str:
    """The sidecar, ``json.dumps`` of ``{"objective": ..., "columns": {C...:
    {"name", "family", "indices"}}, "rows": {R...: name}}``, written one
    formatted string per entry from the model's label records. JSON escapes
    each character on its own, so escaping each family or label name once
    escapes every name made from it; a literal column goes through
    ``json.dumps`` whole."""
    entries, j = [], 0
    for rec in model.col_labels:
        names, j = cols[j:j + rec.size], j + rec.size
        if isinstance(rec, Family):
            fam = _escape(rec.family)
            entries += [
                f'"{cn}": {{"name": "{name}", "family": "{fam}", "indices": [{", ".join(p)}]}}'
                for cn, name, p in zip(names, rec.names(_escape), rec.positions(text=True))
            ]
        else:
            entries += [
                f'"{cn}": ' + json.dumps({"name": name, "family": meta[0] if meta else None,
                                          "indices": meta[1] if meta else None})
                for cn, name, meta in zip(names, rec.names(), rec.metas())
            ]
    labels = [name for rec in model.row_labels for name in rec.names(_escape)]
    return (f'{{"objective": "{OBJECTIVE}", "columns": {{{", ".join(entries)}}}, "rows": {{'
            + ", ".join([f'"{rn}": "{name}"' for rn, name in zip(rows, labels)]) + "}}\n")


def _write_mps(fh, model: MilpModel, rows: list[str], cols: list[str]) -> None:
    n = model.n_cols
    lb, ub, integral = model.lb, model.ub, model.is_int.astype(bool)
    # The objective is row 0 of the matrix, so every column's entries are
    # one slice: objective first, then its rows in order (tocsc sorts them).
    # An empty column holds an explicit zero objective entry (0.0 also
    # where its objective is -0.0).
    cost = np.flatnonzero((model.obj != 0.0) | (np.bincount(model.A.indices, minlength=n) == 0))
    cost_row = sp.csr_matrix(
        (np.where(model.obj[cost] != 0.0, model.obj[cost], 0.0), (np.zeros_like(cost), cost)), shape=(1, n)
    )
    A = sp.vstack([cost_row, model.A], format="csc")
    ptr = A.indptr
    rhs_nz = np.flatnonzero(model.rhs != 0.0)
    values = _ValueStrings(np.concatenate([A.data, model.rhs[rhs_nz], lb, ub]), "12.12G")
    fields = np.array([f"{name:<8}  " for name in [OBJECTIVE] + rows], dtype=object)

    # An entry is its head, row field and value. A column's first, third,
    # ... entry opens a line: its head ends the line before and starts the
    # column's name, after the marker when the column opens or closes a
    # binary block. The entries between continue their line.
    switch = np.flatnonzero(integral != np.concatenate([[False], integral[:-1]]))
    heads = np.array(
        [f"\n    {cn}  " for cn in cols]
        + [f"\n{_marker(k, bool(integral[j]))}    {cols[j]}  " for k, j in enumerate(switch.tolist())]
        + ["   "],
        dtype=object,
    )
    first_head = np.arange(n)
    first_head[switch] = n + np.arange(len(switch))
    entry_col = np.repeat(np.arange(n), np.diff(ptr))

    def cells(a, b):
        col = entry_col[a:b]
        pos = np.arange(a, b) - ptr[col]
        head = np.where(pos % 2 == 1, len(heads) - 1, np.where(pos == 0, first_head[col], col))
        return [heads[head], fields[A.indices[a:b]], values(A.data[a:b])]

    # Each column writes up to two bound lines, FX, FR, MI or LO, then UP
    # or PL; only FX, LO and UP carry a value.
    fixed = lb == ub
    free = ~fixed & (lb == -math.inf) & (ub == math.inf)
    rest = ~fixed & ~free
    first = np.select([fixed, free, rest & (lb == -math.inf), rest & (lb != 0.0)], [0, 1, 2, 3], -1)
    second = np.select([rest & (ub != math.inf), rest & (integral | (lb != 0.0))], [4, 5], -1)
    c1, c2 = np.flatnonzero(first >= 0), np.flatnonzero(second >= 0)
    order = np.argsort(np.concatenate([2 * c1, 2 * c2 + 1]), kind="stable")
    bound_col = np.concatenate([c1, c2])[order]
    bound_kind = np.concatenate([first[c1], second[c2]])[order]
    bound_value = np.concatenate([lb[c1], ub[c2]])[order]
    valued = np.isin(bound_kind, (0, 3, 4))
    names = np.array(cols, dtype=object)

    def bounds(a, b):
        text = "  " + values(bound_value[a:b])
        text[~valued[a:b]] = ""
        return [BOUND_KINDS[bound_kind[a:b]], names[bound_col[a:b]], text, "\n"]

    fh.write(f"NAME          {MODEL_NAME}\nROWS\n N  {OBJECTIVE}\n")
    fh.writelines(f" {sense}  {name}\n" for sense, name in zip(model.row_sense, rows))
    fh.write("COLUMNS")
    _write_records(fh, A.nnz, cells)
    fh.write("\n")
    if n and integral[-1]:
        fh.write(_marker(len(switch), False))
    fh.write("RHS\n")
    _write_records(fh, len(rhs_nz), lambda a, b: [
        "    RHS       ", fields[rhs_nz[a:b] + 1], values(model.rhs[rhs_nz[a:b]]), "\n"])
    fh.write("BOUNDS\n")
    _write_records(fh, len(bound_col), bounds)
    fh.write("ENDATA\n")


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
    x = np.asarray(x, dtype=np.float64)
    values = _ValueStrings(x, ".12g")
    names = np.array(_names("C", model.n_cols), dtype=object)
    with open(path, "w") as fh:
        _write_records(fh, model.n_cols, lambda a, b: [names[a:b], " ", values(x[a:b]), "\n"])


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
    issues = model.check_point(x)
    if issues:
        raise SolutionImportError(
            f"imported point violates the model ({len(issues)} issue(s))",
            violations=issues,
        )
    return x
