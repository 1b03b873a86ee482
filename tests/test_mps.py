import json
import tracemalloc

import numpy as np
import pytest

from evplan import mps_io
from evplan.bnb import SolverConfig, solve_bnb
from evplan.builder import build_plan_model
from evplan.errors import SolutionImportError
from evplan.fleet import generate_commute_fleet
from evplan.instance import prepare_instance
from evplan.milp import BINARY, CONTINUOUS, SENSE_EQ, SENSE_GE, SENSE_LE, Labels, MilpModel
from evplan.mps_io import (
    CHUNK,
    export_mps,
    import_solution,
    parse_mps,
    write_solution_file,
)

from helpers import reference_mps_text, reference_sidecar_text, reference_solution_text, tiny_instance


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    inst = tiny_instance(seed=150, scenario="A", chargers="spc")
    model = build_plan_model(inst)
    out = tmp_path_factory.mktemp("mps")
    sidecar = export_mps(model, out / "model.mps")
    return inst, model, out / "model.mps", sidecar


def test_names_are_eight_char_safe(built):
    _, model, path, _ = built
    doc = parse_mps(path)
    names = set(doc["columns"]) | {n for _, n in doc["rows"]}
    assert all(len(n) <= 8 for n in names)
    assert len(doc["columns"]) == model.n_cols


def test_column_order_matches_builder(built):
    _, model, path, _ = built
    text = path.read_text()
    cols_section = text.split("COLUMNS")[1].split("RHS")[0]
    seen = []
    for line in cols_section.splitlines():
        parts = line.split()
        if parts and parts[0].startswith("C") and (not seen or seen[-1] != parts[0]):
            if parts[0] not in seen:
                seen.append(parts[0])
    expected = [f"C{j + 1:07d}" for j in range(model.n_cols)]
    assert seen == expected


def test_reparse_reproduces_matrix(built):
    _, model, path, _ = built
    doc = parse_mps(path)
    sense_map = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}
    rows = {name: tag for tag, name in doc["rows"]}
    for i in range(model.n_rows):
        assert rows[f"R{i + 1:07d}"] == sense_map[model.row_sense[i]]
    A = model.A.tocsc()
    for j in range(model.n_cols):
        entries = doc["columns"][f"C{j + 1:07d}"]["entries"]
        expect = {}
        if model.obj[j] != 0.0:
            expect["COST"] = model.obj[j]
        start, end = A.indptr[j], A.indptr[j + 1]
        for k in range(start, end):
            expect[f"R{A.indices[k] + 1:07d}"] = A.data[k]
        got = {k: v for k, v in entries.items() if v != 0.0 or k in expect}
        assert got == pytest.approx(expect)
    for i, b in enumerate(model.rhs):
        if b != 0.0:
            assert doc["rhs"][f"R{i + 1:07d}"] == pytest.approx(float(b))
    # Binary columns sit inside INTORG/INTEND markers.
    ints = {f"C{j + 1:07d}" for j in range(model.n_cols) if model.is_int[j]}
    assert doc["integral"] == ints


def test_sidecar_maps_families(built):
    _, model, path, sidecar = built
    doc = json.loads(sidecar.read_text())
    first = doc["columns"]["C0000001"]
    assert first["family"] == "fast_charge"
    assert first["indices"] == [0, 0]
    assert len(doc["columns"]) == model.n_cols


def test_solution_round_trip(built):
    inst, model, path, _ = built
    res = solve_bnb(model, SolverConfig(gap=0.0, abs_gap=1e-9))
    assert res.x is not None
    sol_path = path.parent / "sol.txt"
    write_solution_file(model, res.x, sol_path)
    x = import_solution(model, sol_path)
    assert np.allclose(x, res.x, atol=1e-9)
    assert model.objective_value(x) == pytest.approx(res.objective, abs=1e-6)


def test_truncated_solution_rejected(built):
    _, model, path, _ = built
    sol_path = path.parent / "bad.txt"
    sol_path.write_text("C0000001 0\nC0000002 1\n")
    with pytest.raises(SolutionImportError) as err:
        import_solution(model, sol_path)
    assert "misses" in str(err.value)


def test_unknown_column_rejected(built):
    _, model, path, _ = built
    res_lines = [f"C{j + 1:07d} 0" for j in range(model.n_cols)]
    res_lines.append("ZZZ 1")
    sol_path = path.parent / "unk.txt"
    sol_path.write_text("\n".join(res_lines) + "\n")
    with pytest.raises(SolutionImportError) as err:
        import_solution(model, sol_path)
    assert "unknown" in str(err.value)


def test_names_are_known_only_as_written(built):
    # A name that parses to a column index but is not that column's
    # generated name is unknown; the message lists the first five sorted.
    _, model, path, _ = built
    n = model.n_cols
    lines = [f"C{j + 1:07d} 0" for j in range(n)]
    huge = "C" + "9" * 5000  # more digits than int() reads by default
    lines += ["C1 0", "C0000000 0", f"C{n + 1:07d} 0", "C+000001 0", f"{huge} 0", "c0000001 0", "C\u0660000001 0"]
    sol_path = path.parent / "near.txt"
    sol_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SolutionImportError) as err:
        import_solution(model, sol_path)
    assert str(err.value) == f"unknown column names: C+000001, C0000000, C{n + 1:07d}, C1, {huge}"


@pytest.mark.parametrize(
    "bad, line, message",
    [("abc", 3, "value 'abc' is not a number"), ("nan", 3, "value 'nan' is not finite"),
     ("0\nC0000001 1", 4, "column C0000001 given twice")],
)
def test_malformed_value_rejected_with_line(built, bad, line, message):
    _, model, path, _ = built
    sol_path = path.parent / "malformed.txt"
    sol_path.write_text(f"# header\nC0000002 0\nC0000001 {bad}\n")
    with pytest.raises(SolutionImportError) as err:
        import_solution(model, sol_path)
    assert str(err.value) == f"{sol_path}:{line}: {message}"


def test_infeasible_point_rejected_with_violations(built):
    inst, model, path, _ = built
    x = np.zeros(model.n_cols)
    # All-zero violates the recharge rows whenever demand is positive.
    sol_path = path.parent / "zero.txt"
    write_solution_file(model, x, sol_path)
    if inst.schedule.discharge_kw.sum() > 0:
        with pytest.raises(SolutionImportError) as err:
            import_solution(model, sol_path)
        assert err.value.violations


def edge_model() -> MilpModel:
    """Every bound type, empty and objective-only columns, and two
    binary blocks, the second one running to the end of COLUMNS."""
    m = MilpModel()
    b0 = m.add_column("b0", BINARY, 0, 1, obj=3.0)
    b1 = m.add_column("b1", BINARY, 0, 1)
    m.add_column("x2", CONTINUOUS, 2.5, 2.5)
    m.add_column("x3", CONTINUOUS, -np.inf, np.inf, obj=-1.5)
    x4 = m.add_column("x4", CONTINUOUS, -np.inf, 7.0)
    x5 = m.add_column("x5", CONTINUOUS, 2.0, 5.0, obj=1e15)
    x6 = m.add_column("x6", CONTINUOUS, 1.0, np.inf)
    (y0,) = m.add_family("y", (1,), BINARY)
    m.set_bounds(b1, 0.0, np.inf)
    m.add_row("cap", [(b0, 1.0), (b1, 1.0), (x4, -2.0 / 3.0)], SENSE_LE, 4.0)
    m.add_row("need", [(x4, 123456.789012), (x5, 1.5e-7), (y0, 2.0)], SENSE_GE, -1.25)
    m.add_row("tie", [(b0, -1.0), (x5, 1.0), (x6, 1.0)], SENSE_EQ, 0.0)
    return m.freeze()


EDGE_MPS = """\
NAME          EVPLAN
ROWS
 N  COST
 L  R0000001
 G  R0000002
 E  R0000003
COLUMNS
    MARKER0000  'MARKER'                 'INTORG'
    C0000001  COST                 3   R0000001             1
    C0000001  R0000003            -1
    C0000002  R0000001             1
    MARKER0001  'MARKER'                 'INTEND'
    C0000003  COST                 0
    C0000004  COST              -1.5
    C0000005  R0000001  -0.666666666667   R0000002  123456.789012
    C0000006  COST             1E+15   R0000002       1.5E-07
    C0000006  R0000003             1
    C0000007  R0000003             1
    MARKER0002  'MARKER'                 'INTORG'
    C0000008  R0000002             2
    MARKER0003  'MARKER'                 'INTEND'
RHS
    RHS       R0000001             4
    RHS       R0000002         -1.25
BOUNDS
 UP BND       C0000001             1
 PL BND       C0000002
 FX BND       C0000003           2.5
 FR BND       C0000004
 MI BND       C0000005
 UP BND       C0000005             7
 LO BND       C0000006             2
 UP BND       C0000006             5
 LO BND       C0000007             1
 PL BND       C0000007
 UP BND       C0000008             1
ENDATA
"""


def test_export_text_of_edge_cases(tmp_path):
    sidecar = export_mps(edge_model(), tmp_path / "edge.mps")
    assert (tmp_path / "edge.mps").read_text() == EDGE_MPS
    doc = json.loads(sidecar.read_text())
    assert doc["objective"] == "COST"
    assert doc["rows"] == {"R0000001": "cap", "R0000002": "need", "R0000003": "tie"}
    assert doc["columns"]["C0000001"] == {"name": "b0", "family": None, "indices": None}
    assert doc["columns"]["C0000008"] == {"name": "y[0]", "family": "y", "indices": [0]}
    assert len(doc["columns"]) == 8


# 0.1234567890123 and the next float up print alike to 12 digits.
ALIKE = 0.1234567890123
COEFFICIENTS = [1.0, -1.0, 2.5, 1.0 / 3.0, 1e15, 1.5e-7, -123456.789012, ALIKE, np.nextafter(ALIKE, 1.0)]


def random_model(seed: int) -> MilpModel:
    """Repeated coefficients from a small pool next to distinct random
    ones, fixed bounds at -0.0 and 0.0, an empty first and last column
    (the first with an objective of -0.0), one binary block opening at
    column 0 and one running to the last column, and more matrix entries
    than one write chunk."""
    rng = np.random.default_rng(seed)
    n_cols, n_rows = 240, 60
    model = MilpModel()
    lows = [0.0, -np.inf, 2.0, -0.0, 0.0, -3.5]
    highs = [np.inf, 7.0, 2.0, -0.0, 0.0, np.inf]
    for j in range(n_cols):
        if j < 12 or j >= n_cols - 10 or rng.random() < 0.2:
            model.add_column(f"b{j}", BINARY, 0, 1)
        else:
            k = int(rng.integers(len(lows)))
            model.add_column(f"x{j}", CONTINUOUS, lows[k], highs[k])
    inner = np.arange(1, n_cols - 1)
    model.set_objective(inner[::3], rng.choice(COEFFICIENTS, size=len(inner[::3])))
    model.set_objective(0, -0.0)  # an objective of -0.0 leaves a column empty
    for i in range(n_rows):
        cols = rng.choice(inner, size=90, replace=False)
        vals = np.where(rng.random(90) < 0.7, rng.choice(COEFFICIENTS, size=90), rng.normal(size=90))
        model.add_row(f"r{i}", zip(cols.tolist(), vals.tolist()), rng.choice([SENSE_LE, SENSE_GE, SENSE_EQ]),
                      float(rng.choice([0.0, -0.0, 4.0, ALIKE, rng.normal()])))
    model.freeze()
    assert model.A.nnz > CHUNK
    return model


def escaped_model() -> MilpModel:
    """Literal, family and label names that JSON must escape: quotes,
    backslashes, non-ASCII and control characters; an empty family and a
    family of one column with no index."""
    m = MilpModel()
    a = m.add_column('q"uote', BINARY, 0, 1, obj=1.0, meta=("lit", (3, 4)))
    b = m.add_column("back\\slash", CONTINUOUS, 0, 4)
    c = m.add_column("caf\u00e9 \U0001F600\x7f\x01", CONTINUOUS, 0, 4, meta=("f\u00e9", (1,)))
    x = m.add_family('fam"\\\u00e9', (2, 3), BINARY)
    m.add_family("empty", (0, 2), CONTINUOUS)
    m.add_family("scalar", (), CONTINUOUS)
    m.add_row('r"1\\\u00e9', [(a, 1.0), (b, 2.0)], SENSE_LE, 1.0, meta=("r",))
    m.add_row("\u00fcber", [(c, 1.0), (int(x[1, 2]), 1.0)], SENSE_EQ, 0.0)
    m.add_rows(Labels(('lab"\\\u00e9', "plain"), ([7, 8],)), [0, 3], [a, b], [1.0, 1.0], SENSE_GE, 0.0)
    return m.freeze()


def desk_model(network, demand, chargers: str, scenario: str) -> MilpModel:
    schedule, vehicles = generate_commute_fleet(
        network.cluster_nodes(1), network.cluster_nodes(2), 17, seed=42)
    return build_plan_model(prepare_instance(
        network, demand, schedule, vehicles, scenario=scenario, chargers=chargers))


@pytest.mark.parametrize(
    "case, chunk",
    [pytest.param(case, CHUNK, id=case)
     for case in ["edge", "escaped", "random-0", "random-1", "random-2", "spc-A", "spc-B", "mpc-A", "mpc-B"]]
    # Chunks of one to three records split every seam of the streamed
    # sections: a line continued across writes, the ", " between sidecar
    # entries and the switch from its columns to its rows.
    + [pytest.param(case, chunk, id=f"{case}-chunk{chunk}")
       for case in ["edge", "escaped", "random-0"] for chunk in (1, 2, 3)],
)
def test_export_matches_reference_writer(tmp_path, monkeypatch, cigre_network, cigre_demand, case, chunk):
    monkeypatch.setattr(mps_io, "CHUNK", chunk)
    if case == "edge":
        model = edge_model()
    elif case == "escaped":
        model = escaped_model()
    elif case.startswith("random"):
        model = random_model(int(case.split("-")[1]))
    else:
        model = desk_model(cigre_network, cigre_demand, *case.split("-"))
    sidecar = export_mps(model, tmp_path / "model.mps")
    assert (tmp_path / "model.mps").read_bytes() == reference_mps_text(model).encode()
    assert sidecar.read_bytes() == reference_sidecar_text(model).encode()

    rng = np.random.default_rng(len(case))
    x = rng.choice([0.0, 1.0, -0.0, 0.5, 1.0 / 3.0, ALIKE, np.nextafter(ALIKE, 1.0)], size=model.n_cols)
    x[::7] = rng.random(len(x[::7]))
    write_solution_file(model, x, tmp_path / "sol.txt")
    assert (tmp_path / "sol.txt").read_bytes() == reference_solution_text(model, x).encode()


def test_export_peak_memory_stays_near_the_matrix_size(tmp_path, cigre_network, cigre_demand):
    # The export holds one column-ordered copy of the matrix, the row-field
    # and value tables and one chunk of records: no second matrix, no list
    # of all names and no whole sidecar text. Its traced peak stays within
    # 2.5 times the matrix's CSR arrays (4.6 times when it held them).
    schedule, vehicles = generate_commute_fleet(
        cigre_network.cluster_nodes(1), cigre_network.cluster_nodes(2), 50, seed=1
    )
    model = build_plan_model(prepare_instance(cigre_network, cigre_demand, schedule, vehicles,
                                              scenario="B", chargers="spc"))
    matrix = model.A.data.nbytes + model.A.indices.nbytes + model.A.indptr.nbytes
    tracemalloc.start()
    try:
        export_mps(model, tmp_path / "model.mps")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.n_rows > 10_000
    assert peak <= 2.5 * matrix, (peak, matrix)
