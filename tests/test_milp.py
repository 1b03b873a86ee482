import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from evplan.builder import build_plan_model
from evplan.errors import BuildError
from evplan.fleet import generate_commute_fleet
from evplan.instance import prepare_instance
from evplan.milp import BINARY, CONTINUOUS, SENSE_EQ, SENSE_GE, SENSE_LE, Labels, MilpModel


def small_model() -> MilpModel:
    m = MilpModel()
    a = m.add_column("a", BINARY, 0, 1)
    b = m.add_column("b", BINARY, 0, 1)
    c = m.add_column("c", CONTINUOUS, 0.0, 2.0)
    m.add_row("cap", [(a, 1.0), (b, 1.0)], SENSE_LE, 1.0)
    m.add_row("need", [(c, 1.0)], SENSE_GE, 1.0)
    m.add_row("tie", [(a, 1.0), (c, -1.0)], SENSE_EQ, 0.0)
    return m.freeze()


def test_check_point_messages():
    # a is fractional, c is above its bound, and the tie row breaks.
    m = small_model()
    assert m.check_point(np.array([0.5, 0.0, 3.0])) == [
        "column c = 3 outside bounds",
        "row tie: activity -2.5 E 0 violated",
        "column a = 0.5 not integral",
    ]
    assert m.check_point(np.array([1.0, 0.0, 1.0])) == []


def test_check_point_reports_non_finite_entries():
    # Every comparison with NaN is false, so no bound or row check sees it.
    m = small_model()
    assert m.check_point(np.array([np.nan, 0.0, np.nan])) == [
        "column a = nan not finite",
        "column c = nan not finite",
    ]


def test_row_block_matches_single_rows():
    # One block of two rows equals the same rows added one by one: zero
    # values are dropped and duplicates summed.
    m = MilpModel()
    cols = m.add_family("x", (3,), CONTINUOUS, lb=0.0, ub=[1.0, 2.0, 3.0])
    rows = m.add_rows(
        Labels(("r",), ([0, 1],)), [0, 0, 0, 1, 1], [cols[0], cols[1], cols[0], cols[2], cols[1]],
        [1.0, 0.0, 2.0, -1.0, 4.0], [SENSE_LE, SENSE_GE], [5.0, 6.0],
    )
    assert rows.tolist() == [0, 1]
    m.freeze()
    one = MilpModel()
    for j in range(3):
        one.add_column(f"x[{j}]", CONTINUOUS, 0.0, j + 1.0, meta=("x", (j,)))
    one.add_row("r[0]", [(0, 3.0)], SENSE_LE, 5.0, meta=("r", 0))
    one.add_row("r[1]", [(2, -1.0), (1, 4.0)], SENSE_GE, 6.0, meta=("r", 1))
    one.freeze()
    assert m.A.nnz == 3 and (m.A != one.A).nnz == 0
    for field in ("rhs", "lb", "ub", "obj", "is_int"):
        assert np.array_equal(getattr(m, field), getattr(one, field))
    for field in ("row_names", "row_sense", "row_meta", "col_names", "col_meta"):
        assert getattr(m, field) == getattr(one, field)


def test_rows_reject_undefined_columns():
    m = MilpModel()
    m.add_column("a", BINARY, 0, 1)
    with pytest.raises(BuildError, match="row r references undefined column 3"):
        m.add_row("r", [(0, 1.0), (3, 1.0)], SENSE_LE, 1.0)


def test_binary_family_rejects_other_bounds():
    # The error names the offending column, entry 2 of the (2, 2) family.
    m = MilpModel()
    with pytest.raises(BuildError, match=r"binary column x\[1_0\] must have bounds \[0, 1\]"):
        m.add_family("x", (2, 2), BINARY, ub=[1, 1, 2, 1])


def test_names_render_on_read_and_follow_later_blocks():
    # Names read before the model is complete include blocks added later.
    m = MilpModel()
    m.add_family("x", (2,), CONTINUOUS)
    assert m.col_names == ["x[0]", "x[1]"]
    m.add_column("y", CONTINUOUS, 0.0, 1.0, meta=("y", ()))
    m.add_rows(Labels(("r", "s"), ([4, 5], [0, 1]), ("t", "t")), [0, 3], [0, 2], [1.0, 1.0], SENSE_LE, 1.0)
    m.freeze()
    assert m.col_names == ["x[0]", "x[1]", "y"]
    assert m.col_meta == [("x", (0,)), ("x", (1,)), ("y", ())]
    assert m.row_names == ["r[4,0]", "s[4,0]", "r[5,1]", "s[5,1]"]
    assert m.row_meta == [("t", 4, 0), ("t", 4, 0), ("t", 5, 1), ("t", 5, 1)]
    assert m.n_cols == 3 and m.n_rows == 4 and m.n_binary == 0
    assert m.check_point(np.array([0.0, 0.0, 2.0])) == [
        "column y = 2 outside bounds",
        "row s[5,1]: activity 2 L 1 violated",
    ]


@pytest.mark.parametrize("seed", range(6))
def test_freeze_equals_one_coo_conversion(seed):
    # Blocks with duplicate entries, explicit zeros, unsorted entries, and
    # blocks with no entries or no rows. The reference converts all nonzero
    # entries at once from int64 global indices; the model drops zero
    # values when a block arrives, so they are left out of it too.
    rng = np.random.default_rng(seed)
    m = MilpModel()
    n = int(rng.integers(1, 30))
    m.add_family("x", (n,), CONTINUOUS)
    r_all, c_all, v_all = [], [], []
    for _ in range(int(rng.integers(1, 12))):
        size = int(rng.integers(0, 6))
        nnz = int(rng.integers(0, 20)) if size else 0
        rows = rng.integers(0, max(size, 1), nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.choice([0.0, 1.0, -2.5, 0.125], nnz)
        r0 = m.add_rows(Labels(("r",), (np.arange(size),)), rows, cols, vals, SENSE_LE, 1.0)
        r_all.append(rows.astype(np.int64) + m.n_rows - size)
        c_all.append(cols.astype(np.int64))
        v_all.append(vals)
        assert r0.tolist() == list(range(m.n_rows - size, m.n_rows))
    r, c, v = (np.concatenate(a) for a in (r_all, c_all, v_all))
    keep = v != 0.0
    ref = sp.coo_matrix((v[keep], (r[keep], c[keep])), shape=(m.n_rows, n)).tocsr()
    m.freeze()
    assert type(m.A) is type(ref) and m.A.shape == ref.shape
    for field in ("data", "indices", "indptr"):
        got, want = getattr(m.A, field), getattr(ref, field)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(m.rhs, np.ones(m.n_rows))


def test_build_peak_memory_stays_near_the_model_size(cigre_network, cigre_demand):
    # The blocks are kept as int32 indices and freed while freeze
    # concatenates them: the traced peak of a build stays within 2.5 times
    # the memory the frozen model holds (4.4 times when the blocks were
    # int64 and all alive through the conversion).
    schedule, vehicles = generate_commute_fleet(
        cigre_network.cluster_nodes(1), cigre_network.cluster_nodes(2), 50, seed=1
    )
    inst = prepare_instance(cigre_network, cigre_demand, schedule, vehicles,
                            scenario="B", chargers="spc")
    tracemalloc.start()
    try:
        model = build_plan_model(inst)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.n_rows > 10_000
    assert peak <= 2.5 * held, (peak, held)
