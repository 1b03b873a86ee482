"""Fixed-format MPS export and external-solution import.

Columns are emitted in builder order under generated 8-character names
(C0000001, ...), rows as R0000001..., with binaries wrapped in
INTORG/INTEND markers. A compact JSON sidecar maps the generated names
back to (family, indices) so external solutions can be joined with the
model. Its bytes are those of one ``json.dumps`` of the whole mapping, but
it is streamed to the open file ``CHUNK`` entries per write, each entry
formatted from the model's label records.

A model holds few distinct numbers: a 50-vehicle model has about 6,000
among 146,000 matrix entries. So the writer formats each distinct value
once, keyed on its bit pattern, into a value table. COLUMNS reads one CSC
copy of ``model.A`` whose entries hold their value's place in that table
(int32, 8 bytes per entry with the row index), and writes each column's
objective entry from ``model.obj`` ahead of its rows. The COLUMNS, RHS
and BOUNDS sections build their lines by indexing into the value table,
a table of row fields and the column heads and names a chunk needs,
formatted from their indices; they are joined and written ``CHUNK``
records at a time. So an export holds the model, the CSC copy, the two
tables and one chunk of records, and no list of all names: its
tracemalloc peak is 2.2 times the bytes of the model's CSR arrays at 50
vehicles and 1.5 times at 400. The bytes are those of formatting every
entry on its own.
"""

from __future__ import annotations

import itertools
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
DIGITS = [f"{k:03d}" for k in range(1000)]  # the last three digits of a generated name


def _names_of(prefix: str, idx: np.ndarray) -> list[str]:
    """The generated names ``<prefix>0000001``, ... of the rows or columns
    ``idx`` (ascending, counted from 0). The names of a thousand share a
    formatted head, and a name is its head plus three digits from
    ``DIGITS``: a fraction of the time of formatting each name."""
    if not len(idx):
        return []
    thousand, digits = np.divmod(idx + 1, 1000)
    t0 = int(thousand[0])
    heads = [f"{prefix}{t:04d}" for t in range(t0, int(thousand[-1]) + 1)]
    return [heads[t] + DIGITS[d] for t, d in zip((thousand - t0).tolist(), digits.tolist())]


def _name_stream(prefix: str, a: int, b: int):
    """The names of rows or columns ``a`` to ``b - 1``, made ``CHUNK`` at a
    time."""
    return itertools.chain.from_iterable(
        _names_of(prefix, np.arange(c, min(c + CHUNK, b))) for c in range(a, b, CHUNK))


def _marker(k: int, opens: bool) -> str:
    return f"    MARKER{k:04d}  'MARKER'                 '{'INTORG' if opens else 'INTEND'}'\n"


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def _unique(bits: np.ndarray) -> np.ndarray:
    # np.unique would hash here, which takes several times as long as
    # sorting the 64-bit patterns.
    bits = np.sort(bits)
    first = np.ones(len(bits), dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    return bits[first]


class _ValueStrings:
    """Each distinct float among the arrays ``sources`` formatted once by
    the format string ``template``.

    Values are keyed on their bit pattern, so ``-0.0`` and ``0.0`` keep
    their own strings. Each source is reduced to its distinct values on its
    own, so no copy of all of them is made. ``index`` gives the place of
    any of those values in ``strings``, and calling the table gives their
    strings as an object array.
    """

    def __init__(self, sources: list[np.ndarray], template: str):
        self.keys = _unique(np.concatenate([_unique(_bits(v)) for v in sources]))
        self.strings = np.array([template.format(v) for v in self.keys.view(np.float64).tolist()], dtype=object)

    def index(self, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.keys, _bits(values))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.strings[self.index(values)]


def _write_records(fh, n: int, parts_of) -> None:
    """Write ``n`` records, ``CHUNK`` per write. ``parts_of(a, b)`` gives
    the parts of records ``a`` to ``b - 1``: object arrays or lists holding
    one string per record, or a string shared by all; a record is its parts
    concatenated."""
    for a in range(0, n, CHUNK):
        b = min(a + CHUNK, n)
        parts = parts_of(a, b)
        pieces = [""] * ((b - a) * len(parts))
        for k, part in enumerate(parts):
            if isinstance(part, str):
                part = [part] * (b - a)
            pieces[k::len(parts)] = part if isinstance(part, list) else part.tolist()
        fh.write("".join(pieces))


def _write_joined(fh, entries) -> None:
    """Write the strings of the iterator ``entries`` separated by ``", "``,
    ``CHUNK`` per write."""
    sep = ""
    while chunk := list(itertools.islice(entries, CHUNK)):
        fh.write(sep + ", ".join(chunk))
        sep = ", "


def export_mps(model: MilpModel, path: str | Path) -> Path:
    """Write the model plus a ``<path>.columns.json`` sidecar; returns the
    sidecar's path."""
    path = Path(path)
    with open(path, "w") as fh:
        _write_mps(fh, model)

    sidecar_path = path.with_suffix(path.suffix + ".columns.json")
    with open(sidecar_path, "w") as fh:
        _write_sidecar(fh, model)
    return sidecar_path


def _escape(text: str) -> str:
    """``text`` as it stands between the quotes of a JSON string."""
    return json.dumps(text)[1:-1]


def _column_entries(model: MilpModel):
    """The sidecar's ``"C...": {"name", "family", "indices"}`` entries, one
    string each, from the model's column label records. JSON escapes each
    character on its own, so escaping each family name once escapes every
    name made from it; a literal column goes through ``json.dumps`` whole."""
    j = 0
    for rec in model.col_labels:
        cols, j = _name_stream("C", j, j + rec.size), j + rec.size
        if isinstance(rec, Family):
            fam = _escape(rec.family)
            yield from (
                f'"{cn}": {{"name": "{name}", "family": "{fam}", "indices": [{", ".join(p)}]}}'
                for cn, name, p in zip(cols, rec.names(_escape), rec.positions(text=True))
            )
        else:
            yield from (
                f'"{cn}": ' + json.dumps({"name": name, "family": meta[0] if meta else None,
                                              "indices": meta[1] if meta else None})
                for cn, name, meta in zip(cols, rec.names(), rec.metas())
            )


def _write_sidecar(fh, model: MilpModel) -> None:
    """The sidecar, ``json.dumps`` of ``{"objective": ..., "columns": {C...:
    {"name", "family", "indices"}}, "rows": {R...: name}}``, streamed
    ``CHUNK`` entries per write. A record's names are rendered when the
    stream reaches it."""
    fh.write(f'{{"objective": "{OBJECTIVE}", "columns": {{')
    _write_joined(fh, _column_entries(model))
    fh.write('}, "rows": {')
    names = itertools.chain.from_iterable(rec.names(_escape) for rec in model.row_labels)
    _write_joined(fh, (f'"{rn}": "{name}"' for rn, name in zip(_name_stream("R", 0, model.n_rows), names)))
    fh.write("}}\n")


def _write_mps(fh, model: MilpModel) -> None:
    m = model.n_rows
    lb, ub, integral = model.lb, model.ub, model.is_int.astype(bool)
    # An empty column holds an explicit zero objective entry (0.0 also
    # where its objective is -0.0).
    cost = np.where(model.obj != 0.0, model.obj, 0.0)
    rhs_nz = np.flatnonzero(model.rhs != 0.0)
    # Made before the CSC copy, so that sorting the matrix's values does
    # not add a transient of its size next to that copy. A value string
    # carries the two spaces before it, so a row field is the padded name
    # that ROWS writes too.
    values = _ValueStrings([model.A.data, cost, model.rhs[rhs_nz], lb, ub], "  {:12.12G}")
    fields = np.array([f"{OBJECTIVE:<8}"] + _names_of("R", np.arange(m)), dtype=object)

    fh.write(f"NAME          {MODEL_NAME}\nROWS\n N  {OBJECTIVE}\n")
    _write_records(fh, m, lambda a, b: [" ", model.row_sense[a:b], "  ", fields[a + 1:b + 1], "\n"])
    fh.write("COLUMNS")
    _write_columns(fh, model, cost, integral, fields, values)
    fh.write("RHS\n")
    _write_records(fh, len(rhs_nz), lambda a, b: [
        "    RHS       ", fields[rhs_nz[a:b] + 1], values(model.rhs[rhs_nz[a:b]]), "\n"])

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

    def bounds(a, b):
        text = values(bound_value[a:b])
        text[~valued[a:b]] = ""
        return [BOUND_KINDS[bound_kind[a:b]], _names_of("C", bound_col[a:b]), text, "\n"]

    fh.write("BOUNDS\n")
    _write_records(fh, len(bound_col), bounds)
    fh.write("ENDATA\n")


def _write_columns(fh, model: MilpModel, cost, integral, fields, values) -> None:
    """The COLUMNS section after its header. It reads the matrix from one
    CSC copy whose entries hold each value's place in ``values`` as int32,
    made once and freed when the section is written."""
    A = model.A
    A = sp.csr_matrix((values.index(A.data).astype(np.int32), A.indices, A.indptr), shape=A.shape).tocsc()
    # A column's entries are its objective entry, when its objective is
    # nonzero or the column is empty, then its rows in order (tocsc sorts
    # them); ``ptr`` delimits them as ``indptr`` does the matrix's.
    length = np.diff(A.indptr)
    has_cost = (model.obj != 0.0) | (length == 0)
    ptr = np.concatenate([[0], np.cumsum(length + has_cost, dtype=np.int64)])
    switch = np.flatnonzero(integral != np.concatenate([[False], integral[:-1]]))

    # An entry is its head, row field and value. A column's first, third,
    # ... entry opens a line: its head ends the line before and starts the
    # column's name, after the marker when the column opens or closes a
    # binary block. The entries between continue their line. A chunk
    # makes the heads of the columns it touches.
    def cells(a, b):
        c0, c1 = np.searchsorted(ptr, (a, b - 1), side="right")
        c0 -= 1
        col = np.repeat(np.arange(c0, c1), np.diff(np.clip(ptr[c0:c1 + 1], a, b)))
        pos = np.arange(a, b) - ptr[col]
        in_A = (pos > 0) | ~has_cost[col]
        src = (A.indptr[col] + pos - has_cost[col])[in_A]
        row = np.zeros(b - a, dtype=np.int32)
        row[in_A] = A.indices[src] + 1
        value = np.empty(b - a, dtype=np.int32)
        value[in_A] = A.data[src]
        value[~in_A] = values.index(cost[col[~in_A]])

        s0, s1 = np.searchsorted(switch, (c0, c1))
        names = _names_of("C", np.arange(c0, c1))
        heads = np.array(
            ["\n    " + cn + "  " for cn in names]
            + [f"\n{_marker(s, bool(integral[j]))}    {names[j - c0]}  "
               for s, j in enumerate(switch[s0:s1].tolist(), s0)]
            + ["   "],
            dtype=object,
        )
        col -= c0
        first_head = np.arange(c1 - c0)
        first_head[switch[s0:s1] - c0] = c1 - c0 + np.arange(s1 - s0)
        head = np.where(pos % 2 == 1, len(heads) - 1, np.where(pos == 0, first_head[col], col))
        return [heads[head], fields[row], values.strings[value]]

    _write_records(fh, int(ptr[-1]), cells)
    fh.write("\n")
    if model.n_cols and integral[-1]:
        fh.write(_marker(len(switch), False))


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
    values = _ValueStrings([x], " {:.12g}")
    with open(path, "w") as fh:
        _write_records(fh, model.n_cols, lambda a, b: [_names_of("C", np.arange(a, b)), values(x[a:b]), "\n"])


def _column_index(name: str, n: int) -> int | None:
    """The index of the column that ``name`` names among ``n``, or None.
    A name counts only as it is written, so ``C1`` names no column."""
    digits = name[1:]
    # A generated name has 7 digits, more only past 9,999,999 columns.
    if name[:1] != "C" or not digits.isdecimal() or len(digits) > max(7, len(str(n))):
        return None
    j = int(digits) - 1
    return j if 0 <= j < n and _names_of("C", np.array([j]))[0] == name else None


def import_solution(model: MilpModel, path: str | Path) -> np.ndarray:
    """Read ``name value`` lines, map onto the model, verify feasibility.

    Returns the assignment vector; the objective should be recomputed by
    the caller from ``model.obj`` (it never trusts the solution file).
    """
    x = np.zeros(model.n_cols)
    given = np.zeros(model.n_cols, dtype=bool)
    unknown: set[str] = set()
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
        j = _column_index(name, model.n_cols)
        if name in unknown or (j is not None and given[j]):
            raise SolutionImportError(f"{where}: column {name} given twice")
        if j is None:
            unknown.add(name)
        else:
            x[j], given[j] = value, True

    if unknown:
        raise SolutionImportError(f"unknown column names: {', '.join(sorted(unknown)[:5])}")
    missing = np.flatnonzero(~given)
    if missing.size:
        raise SolutionImportError(
            f"solution file misses {missing.size} column(s), first: {_names_of('C', missing[:1])[0]}"
        )
    issues = model.check_point(x)
    if issues:
        raise SolutionImportError(
            f"imported point violates the model ({len(issues)} issue(s))",
            violations=issues,
        )
    return x
