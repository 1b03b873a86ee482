import numpy as np
import pytest

from evplan.oracle import brute_force_oracle
from evplan.solution import recompute_counts
from evplan.verify import verify_solution

from helpers import tiny_instance


@pytest.fixture(scope="module")
def solved():
    for seed in range(500, 540):
        inst = tiny_instance(seed=seed, scenario="A", chargers="spc")
        res = brute_force_oracle(inst, max_free_binaries=40)
        if res.status == "optimal" and res.assignment.slow_charge.sum() > 0:
            return inst, res.assignment
    raise RuntimeError("no feasible seed found")


def test_oracle_solution_passes(solved):
    inst, asg = solved
    counts = recompute_counts(inst, asg)
    report = verify_solution(inst, asg, counts=counts)
    assert report.ok
    assert [chk.t for chk in report.spot_checks] == list(range(inst.horizon))
    for chk in report.spot_checks:
        assert chk.converged
        assert chk.exact_within_limits
        assert chk.max_voltage_error_pu < 5e-3


def test_charge_while_driving_is_caught(solved):
    inst, asg = solved
    import copy

    bad = copy.deepcopy(asg)
    parked = inst.schedule.parked.any(axis=2)
    v, t = next(
        (v, t)
        for v in range(inst.n_vehicles)
        for t in range(inst.horizon)
        if not parked[v, t]
    )
    bad.slow_charge[v, t] = 1
    bad.slow_plug[v, t] = 1
    report = verify_solution(inst, bad, spot_checks=0)
    assert not report.ok
    rules = {viol.rule for viol in report.violations}
    assert "plug_only_if_parked" in rules


def test_charge_without_plug_is_caught(solved):
    inst, asg = solved
    import copy

    bad = copy.deepcopy(asg)
    v, t = next(
        (v, t)
        for v in range(inst.n_vehicles)
        for t in range(inst.horizon)
        if asg.slow_charge[v, t] == 0 and asg.slow_plug[v, t] == 0
        and inst.schedule.parked[v, t].any()
    )
    bad.slow_charge[v, t] = 1
    report = verify_solution(inst, bad, spot_checks=0)
    assert not report.ok
    assert any(v.rule in ("charge_only_if_plugged", "connection_outside_arrival",
                          "soc_bounds", "grid_box_hi")
               for v in report.violations)


def test_overloaded_node_box_is_flagged():
    # Charge every vehicle at every parked hour: some nodal box or grid row
    # must give (seeds chosen so headroom is finite).
    import copy

    for seed in range(520, 560):
        inst = tiny_instance(seed=seed, scenario="A", chargers="spc")
        if inst.n_vehicles < 2:
            continue
        asg = brute_force_oracle(inst, max_free_binaries=40)
        if asg.status != "optimal":
            continue
        greedy = copy.deepcopy(asg.assignment)
        parked = inst.schedule.parked.any(axis=2)
        greedy.slow_plug[:] = 0
        greedy.slow_charge[:] = 0
        greedy.fast_plug[:] = parked
        greedy.fast_charge[:] = parked
        report = verify_solution(inst, greedy, spot_checks=0)
        grid_rules = {v.rule for v in report.violations if v.rule.startswith("grid_")}
        if grid_rules:
            return
    pytest.skip("no seed produced a grid overload with full-on charging")


def test_count_integrality_asserted(solved):
    inst, asg = solved
    counts = recompute_counts(inst, asg)
    counts["slow_chargers"] = counts["slow_chargers"] + 0.5
    report = verify_solution(inst, asg, counts=counts, spot_checks=0)
    assert any(v.rule == "count_not_integral" for v in report.violations)


def test_undersized_counts_flagged(solved):
    inst, asg = solved
    counts = recompute_counts(inst, asg)
    counts["slow_chargers"] = np.maximum(counts["slow_chargers"] - 1, -1)
    report = verify_solution(inst, asg, counts=counts, spot_checks=0)
    assert any(v.rule == "count_below_usage" for v in report.violations)


def test_report_serializes(solved):
    inst, asg = solved
    report = verify_solution(inst, asg, counts=recompute_counts(inst, asg))
    doc = report.as_dict()
    assert doc["ok"] is True
    assert isinstance(doc["linearization_spot_checks"], list)
