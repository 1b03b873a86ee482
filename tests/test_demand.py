import numpy as np
import pytest

from evplan.demand import dump_demand, load_demand
from evplan.errors import ParameterError


def test_bundled_profile_shape(cigre_network, cigre_demand):
    assert cigre_demand.horizon == 24
    assert len(cigre_demand.node_ids) == 14
    # Reactive power follows the nodal power factors.
    r = cigre_demand.row(3)
    pf = 0.97
    expected = cigre_demand.p_kw[r] * np.tan(np.arccos(pf))
    assert np.allclose(cigre_demand.q_kvar[r], expected, rtol=1e-6)
    # Unrated nodes carry no demand.
    for node in (2, 7, 9, 13):
        assert np.allclose(cigre_demand.p_kw[cigre_demand.row(node)], 0.0)


def test_round_trip(tmp_path, cigre_network, cigre_demand):
    path = tmp_path / "demand.csv"
    dump_demand(cigre_demand, path)
    again = load_demand(path, cigre_network)
    assert again.node_ids == cigre_demand.node_ids
    assert np.allclose(again.p_kw, cigre_demand.p_kw, atol=1e-5)


def test_companion_q_file(tmp_path, cigre_network, cigre_demand):
    path = tmp_path / "demand.csv"
    dump_demand(cigre_demand, path)
    qpath = tmp_path / "demand_q.csv"
    lines = path.read_text().splitlines()
    rows = [lines[0]]
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(",".join([parts[0]] + [f"{float(x) * 0.25:.6f}" for x in parts[1:]]))
    qpath.write_text("\n".join(rows) + "\n")
    loaded = load_demand(path, cigre_network)
    assert np.allclose(loaded.q_kvar, loaded.p_kw * 0.25, atol=1e-4)


def test_bad_header_rejected(tmp_path, cigre_network):
    path = tmp_path / "demand.csv"
    path.write_text("bus,t0,t1\n3,1.0,2.0\n")
    with pytest.raises(ParameterError):
        load_demand(path, cigre_network)


def test_unknown_node_rejected(tmp_path, cigre_network):
    path = tmp_path / "demand.csv"
    path.write_text("node,t0\n99,1.0\n")
    with pytest.raises(ParameterError):
        load_demand(path, cigre_network)

