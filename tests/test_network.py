import numpy as np
import pytest

from evplan import data_path
from evplan.errors import ParameterError, SingularLineError, TopologyError
from evplan.fleet import generate_commute_fleet
from evplan.instance import prepare_instance
from evplan.network import Bus, BusNetwork, Line, load_network

from helpers import two_bus_network


def test_single_line_admittance_forced_arithmetic():
    # 1 ohm impedance base: base_kv=1, base_kva=1000.
    net = BusNetwork(
        buses=(Bus(0, 1.0), Bus(1, 1.0)),
        lines=(Line(0, 1, 0.01, 0.02),),
        slack_bus=0,
        slack_voltage_pu=1.0,
        transformer_kva=1000.0,
        base_kva=1000.0,
        base_kv=1.0,
    )
    y = net.admittance
    assert y.shape == (2, 2)
    assert y[0, 1] == pytest.approx(-(20 - 40j))
    assert y[1, 0] == pytest.approx(-(20 - 40j))
    assert y[0, 0] == pytest.approx(20 - 40j)


def test_isolated_bus_is_topology_error():
    with pytest.raises(TopologyError):
        BusNetwork(
            buses=(Bus(0, 20.0), Bus(1, 20.0), Bus(2, 20.0)),
            lines=(Line(0, 1, 1.0, 1.0),),
            slack_bus=0,
            slack_voltage_pu=1.0,
            transformer_kva=100.0,
            base_kva=100.0,
            base_kv=20.0,
        )


def test_zero_impedance_line_is_singular():
    net = two_bus_network(r_ohm=0.0, x_ohm=0.0)
    with pytest.raises(SingularLineError):
        net.admittance


def test_cigre_zero_pattern_matches_hand_built_adjacency(cigre_network):
    # Radial CIGRE European configuration plus the two transformer branches.
    expected_edges = {
        (0, 1), (0, 12),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
        (7, 8), (8, 9), (9, 10), (10, 11), (3, 8),
        (12, 13), (13, 14),
    }
    y = cigre_network.admittance
    n = cigre_network.n_buses
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            if abs(y[i, j]) > 0:
                a = cigre_network.buses[i].id
                b = cigre_network.buses[j].id
                seen.add((min(a, b), max(a, b)))
    assert seen == expected_edges
    assert np.allclose(y, y.T)


def test_grid_matrices_are_read_only(cigre_network):
    with pytest.raises(ValueError):
        cigre_network.admittance[0, 0] = 0.0
    with pytest.raises(ValueError):
        cigre_network.line_currents[0, 0] = 0.0


def test_prepare_instance_builds_the_grid_matrices_once(cigre_demand, monkeypatch):
    builds = []
    real = BusNetwork._build_matrices

    def counting(self):
        builds.append(1)
        return real(self)

    monkeypatch.setattr(BusNetwork, "_build_matrices", counting)
    net = load_network(data_path("cigre_mv_14bus.json"))
    schedule, vehicles = generate_commute_fleet(net.cluster_nodes(1), net.cluster_nodes(2), 2, seed=1)
    inst = prepare_instance(net, cigre_demand, schedule, vehicles)
    assert len(inst.linearizations) == 24
    assert len(builds) == 1


def _net_with(bus: Bus) -> BusNetwork:
    return BusNetwork(
        buses=(Bus(0, 20.0), bus),
        lines=(Line(0, bus.id, 1.0, 1.0),),
        slack_bus=0,
        slack_voltage_pu=1.0,
        transformer_kva=100.0,
        base_kva=100.0,
        base_kv=20.0,
    )


def test_network_invariants_rejected():
    with pytest.raises(ParameterError):
        _net_with(Bus(3, 20.0, rating_kva=-5.0, power_factor=0.97))
    with pytest.raises(ParameterError):
        _net_with(Bus(3, 20.0, rating_kva=10.0, power_factor=1.5))
    with pytest.raises(TopologyError):
        BusNetwork(
            buses=(Bus(0, 20.0), Bus(1, 20.0)),
            lines=(Line(0, 7, 1.0, 1.0),),
            slack_bus=0,
            slack_voltage_pu=1.0,
            transformer_kva=100.0,
            base_kva=100.0,
            base_kv=20.0,
        )


def test_bundled_file_fields(cigre_network):
    net = cigre_network
    assert net.slack_bus == 0
    assert net.slack_voltage_pu == pytest.approx(1.03)
    assert net.base_kv == 20.0
    assert len(net.node_ids) == 14
    assert net.cluster_nodes(1) == [3, 4, 5, 8]
    assert net.cluster_nodes(2) == [6, 10, 11, 14]
    node3 = net.buses[net.bus_index(3)]
    assert node3.rating_kva == 285.0
    assert node3.power_factor == 0.97
