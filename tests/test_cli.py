import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evplan import instance as instance_module
from evplan import sensitivity
from evplan.cli import DEFAULT_NODE_LIMIT, main
from evplan.demand import dump_demand
from evplan.fleet_io import dump_fleet
from evplan.network import dump_network

from helpers import tiny_instance


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """CLI inputs for a tiny seeded case (grid JSON, demand CSV, fleet)."""
    out = tmp_path_factory.mktemp("cli")
    inst = tiny_instance(seed=202, scenario="A", chargers="spc")
    dump_network(inst.network, out / "grid.json")
    dump_demand(inst.demand, out / "demand.csv")
    dump_fleet(inst.schedule, inst.vehicles, out / "fleet.json")
    return out, inst


def run_cli(*args):
    return main([str(a) for a in args])


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("generate", "--vehicles", 8, "--seed", 7, "--out", a) == 0
    assert run_cli("generate", "--vehicles", 8, "--seed", 7, "--out", b) == 0
    assert (a / "fleet.json").read_bytes() == (b / "fleet.json").read_bytes()
    assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()


def test_generate_default_is_thousand_vehicles(tmp_path):
    assert run_cli("generate", "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "fleet.json").read_text())
    assert len(doc["vehicles"]) == 1000
    assert all(v["battery_kwh"] == 16.0 for v in doc["vehicles"])


def test_non_positive_daily_energy_exits_2(tmp_path, capsys):
    assert run_cli("generate", "--vehicles", 3, "--daily-kwh", 0, "--out", tmp_path) == 2
    assert "daily energy" in capsys.readouterr().err
    assert not (tmp_path / "fleet.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_daily_energy_exits_2(value, tmp_path, capsys):
    assert run_cli("generate", "--vehicles", 3, "--daily-kwh", value, "--out", tmp_path) == 2
    assert "daily energy" in capsys.readouterr().err
    assert not (tmp_path / "fleet.json").exists()


def test_missing_grid_file_exits_2(tmp_path):
    rc = run_cli("generate", "--grid", tmp_path / "nope.json", "--out", tmp_path)
    assert rc == 2


# A path that cannot be opened as the file or directory it names.
UNOPENABLE = {
    "grid-is-a-directory": ("generate", "--grid", lambda src, tmp: tmp, "--vehicles", 2),
    "config-is-a-directory": ("solve", "--config", lambda src, tmp: tmp),
    "output-directory-is-a-file": ("build", "--out", lambda src, tmp: src / "fleet.json"),
}


@pytest.mark.parametrize("case", sorted(UNOPENABLE))
def test_unopenable_path_exits_2(case, tiny_files, tmp_path, capsys):
    src, _ = tiny_files
    command, flag, path, *rest = UNOPENABLE[case]
    args = {"--grid": src / "grid.json", "--demand": src / "demand.csv",
            "--fleet": src / "fleet.json", "--out": tmp_path / "out"}
    if command == "generate":
        del args["--demand"], args["--fleet"]
    args[flag] = path(src, tmp_path)
    assert run_cli(command, *[a for kv in args.items() for a in kv], *rest) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_negative_seed_exits_2(tmp_path):
    assert run_cli("generate", "--seed", -1, "--vehicles", 2, "--out", tmp_path) == 2
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
    assert run_cli("generate", "--config", tmp_path / "cfg.json", "--vehicles", 2,
                   "--out", tmp_path) == 2


def test_config_file_keys_and_flag_overrides(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"vehicles": 5, "seed": 9}))
    assert run_cli("generate", "--config", tmp_path / "cfg.json", "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "fleet.json").read_text())
    assert len(doc["vehicles"]) == 5
    assert run_cli(
        "generate", "--config", tmp_path / "cfg.json", "--vehicles", 3,
        "--out", tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "fleet.json").read_text())
    assert len(doc["vehicles"]) == 3


def test_build_writes_mps_and_sidecar(tiny_files, tmp_path):
    src, inst = tiny_files
    rc = run_cli(
        "build", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", src / "fleet.json", "--scenario", "A", "--chargers", "spc",
        "--out", tmp_path,
    )
    assert rc == 0
    assert (tmp_path / "model.mps").exists()
    sidecar = json.loads((tmp_path / "model.mps.columns.json").read_text())
    V, T = inst.n_vehicles, inst.horizon
    binaries = [c for c in sidecar["columns"].values() if c["family"] in (
        "fast_charge", "slow_charge", "fast_plug", "slow_plug",
        "fast_connect", "fast_disconnect", "slow_connect", "slow_disconnect")]
    assert len(binaries) == 8 * V * T


def _edited(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    return json.dumps(doc)


def _bad_first_cell(path, cell="abc"):
    header, first, *rest = path.read_text().splitlines()
    node, _, *cells = first.split(",")
    return "\n".join([header, ",".join([node, cell, *cells]), *rest]) + "\n"


def _repeated_first_row(path):
    header, first, *rest = path.read_text().splitlines()
    return "\n".join([header, first, *rest, first]) + "\n"


# (input the file replaces, its text made from the good inputs in ``src``)
MALFORMED = {
    "config-not-json": ("config", lambda src: "{bad"),
    "solution-without-columns": ("solutions", lambda src: '{"label": "spc-A"}'),
    "solution-not-json": ("solutions", lambda src: "not json"),
    "grid-without-lines": ("grid", lambda src: _edited(src / "grid.json", lambda d: d.pop("lines"))),
    "fleet-short-stay-bounds": ("fleet", lambda src: _edited(
        src / "fleet.json", lambda d: d["vehicles"][0].update(stay_bounds=[1, 2]))),
    "fleet-text-soc": ("fleet", lambda src: _edited(
        src / "fleet.json", lambda d: d["vehicles"][0].update(soc_min="x"))),
    "demand-text-cell": ("demand", lambda src: _bad_first_cell(src / "demand.csv")),
    "demand-nan-cell": ("demand", lambda src: _bad_first_cell(src / "demand.csv", "nan")),
    "demand-node-twice": ("demand", lambda src: _repeated_first_row(src / "demand.csv")),
    "fleet-nan-sampling-time": ("fleet", lambda src: _edited(
        src / "fleet.json", lambda d: d.update(ts_hours=float("nan")))),
    "fleet-infinite-battery": ("fleet", lambda src: _edited(
        src / "fleet.json", lambda d: d["vehicles"][0].update(battery_kwh=float("inf")))),
    "grid-nan-ampacity": ("grid", lambda src: _edited(
        src / "grid.json", lambda d: d["lines"][0].update(ampacity_a=float("nan")))),
    "grid-nan-transformer": ("grid", lambda src: _edited(
        src / "grid.json", lambda d: d.update(transformer_kva=float("nan")))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_file_exits_2(case, tiny_files, tmp_path, capsys):
    src, _ = tiny_files
    role, make = MALFORMED[case]
    bad = tmp_path / ("bad.csv" if role == "demand" else "bad.json")
    bad.write_text(make(src))
    shutil.copy(src / "schedule.csv", tmp_path)  # a fleet file names its schedule relatively
    files = {"grid": src / "grid.json", "demand": src / "demand.csv",
             "fleet": src / "fleet.json", role: bad}
    command = "report" if role == "solutions" else "build"
    args = [x for key, path in files.items() for x in (f"--{key}", path)]
    assert run_cli(command, *args, "--out", tmp_path / "out") == 2
    assert f"error: {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "solve"])
def test_non_finite_discharge_in_schedule_exits_2(command, tiny_files, tmp_path, capsys):
    src, _ = tiny_files
    shutil.copy(src / "fleet.json", tmp_path)
    header, *rows = (src / "schedule.csv").read_text().splitlines()
    k = next(i for i, row in enumerate(rows) if row.split(",")[2] == "-1")  # a driving hour
    rows[k] = ",".join(rows[k].split(",")[:3] + ["nan"])
    (tmp_path / "schedule.csv").write_text("\n".join([header, *rows]) + "\n")
    rc = run_cli(command, "--grid", src / "grid.json", "--demand", src / "demand.csv",
                 "--fleet", tmp_path / "fleet.json", "--out", tmp_path / "out")
    assert rc == 2
    assert f"error: {tmp_path / 'schedule.csv'}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--gap", "nan"),
    ("solve", "--time-limit", "inf"),
    ("solve", "--v-min", "nan"),
    ("sweep", "--sweep", "nan"),
])
def test_non_finite_number_exits_2(command, flag, value, tiny_files, tmp_path, capsys):
    src, _ = tiny_files
    rc = run_cli(command, "--grid", src / "grid.json", "--demand", src / "demand.csv",
                 "--fleet", src / "fleet.json", flag, value, "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command, config", [
    ("solve", {"time-limit": "10"}),
    ("solve", {"node-limit": "5"}),
    ("solve", {"node-limit": 2.5}),
    ("solve", {"gap": "abc"}),
    ("solve", {"v-min": "x"}),
    ("sweep", {"node-limit": "3"}),
    ("generate", {"vehicles": "x"}),
    ("build", {"fast_kva": "x"}),
    ("build", {"slow_plug_cost": float("nan")}),
])
def test_config_number_of_wrong_type_exits_2(command, config, tiny_files, tmp_path, capsys):
    src, _ = tiny_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    inputs = [] if command == "generate" else [
        "--grid", src / "grid.json", "--demand", src / "demand.csv", "--fleet", src / "fleet.json"]
    assert run_cli(command, "--config", cfg, *inputs, "--out", tmp_path / "out") == 2
    assert f"error: {cfg}" in capsys.readouterr().err


def test_bad_scenario_tag_exits_2(tiny_files, tmp_path):
    src, _ = tiny_files
    with pytest.raises(SystemExit) as err:
        run_cli(
            "build", "--grid", src / "grid.json", "--demand", src / "demand.csv",
            "--fleet", src / "fleet.json", "--scenario", "Z", "--out", tmp_path,
        )
    assert err.value.code == 2


def test_solve_and_import_round_trip(tiny_files, tmp_path):
    src, inst = tiny_files
    rc = run_cli(
        "solve", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", src / "fleet.json", "--scenario", "A", "--chargers", "spc",
        "--gap", 0, "--out", tmp_path,
    )
    assert rc == 0
    doc = json.loads((tmp_path / "solution_spc-A.json").read_text())
    assert doc["status"] == "optimal"
    assert doc["verification"]["ok"] is True
    assert isinstance(doc["lp_iterations"], int) and doc["lp_iterations"] > 0
    assert doc["runtime_s"] > 0.0
    from evplan.builder import build_plan_model

    model = build_plan_model(inst)
    size = {"rows": model.n_rows, "columns": model.n_cols, "nonzeros": model.A.nnz}
    assert doc["model_size"] == size
    reduced = doc["presolved_size"]
    assert reduced.keys() == size.keys()
    assert all(isinstance(v, int) and 0 < v <= size[k] for k, v in reduced.items())
    assert reduced["columns"] < size["columns"]

    from evplan.oracle import brute_force_oracle

    orc = brute_force_oracle(inst, max_free_binaries=40)
    assert doc["objective"] == pytest.approx(orc.objective)

    rc = run_cli(
        "solve", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", src / "fleet.json", "--scenario", "A", "--chargers", "spc",
        "--import", tmp_path / "solution_spc-A.txt", "--out", tmp_path / "imp",
    )
    assert rc == 0
    doc2 = json.loads((tmp_path / "imp" / "solution_spc-A.json").read_text())
    assert doc2["objective"] == pytest.approx(doc["objective"], abs=1e-6)
    assert (doc2["lp_iterations"], doc2["runtime_s"]) == (0, 0.0)
    assert (doc2["model_size"], doc2["presolved_size"]) == (size, None)


def test_import_of_non_numeric_value_exits_2(tiny_files, tmp_path, capsys):
    src, _ = tiny_files
    (tmp_path / "sol.txt").write_text("C0000001 abc\n")
    rc = run_cli(
        "solve", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", src / "fleet.json", "--import", tmp_path / "sol.txt", "--out", tmp_path,
    )
    assert rc == 2
    assert "sol.txt:1: value 'abc' is not a number" in capsys.readouterr().err


def build_args(src, out, demand=None):
    return (
        "build", "--grid", src / "grid.json", "--demand", demand or src / "demand.csv",
        "--fleet", src / "fleet.json", "--scenario", "A", "--chargers", "spc",
        "--out", out,
    )


def test_diverging_base_load_flow_exits_2(tiny_files, tmp_path, capsys):
    src, inst = tiny_files
    # Far beyond the maximum transfer of the tiny feeder.
    huge = replace(inst.demand, p_kw=inst.demand.p_kw * 1e5)
    dump_demand(huge, tmp_path / "huge.csv")
    assert run_cli(*build_args(src, tmp_path, tmp_path / "huge.csv")) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "model.mps").exists()


def test_base_point_outside_voltage_band_exits_2(tiny_files, tmp_path, capsys):
    src, _ = tiny_files
    # The EV-free voltages sit near 1.0 pu, above this band.
    rc = run_cli(*build_args(src, tmp_path), "--v-min", 0.90, "--v-max", 0.95)
    assert rc == 2
    assert "violates" in capsys.readouterr().err


def test_singular_jacobian_exits_2(tiny_files, tmp_path, monkeypatch, capsys):
    src, _ = tiny_files
    monkeypatch.setattr(sensitivity, "jacobian", lambda ybus, v, pq: np.zeros((2 * len(pq),) * 2))
    assert run_cli(*build_args(src, tmp_path)) == 2
    assert "singular" in capsys.readouterr().err


def test_infeasible_exits_3(tiny_files, tmp_path):
    src, inst = tiny_files
    # Inflate the driving demand far beyond what parked hours can recharge.
    from evplan.fleet import FleetSchedule

    sched = inst.schedule
    bloated = FleetSchedule(
        node_ids=sched.node_ids,
        parked=sched.parked,
        discharge_kw=sched.discharge_kw * 200.0,
        stay_bounds=sched.stay_bounds,
        ts_hours=sched.ts_hours,
    )
    work = tmp_path / "inf"
    work.mkdir()
    dump_fleet(bloated, inst.vehicles, work / "fleet.json")
    rc = run_cli(
        "solve", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", work / "fleet.json", "--scenario", "A", "--chargers", "spc",
        "--gap", 0, "--out", work,
    )
    assert rc == 3
    assert strict_json(work / "solution_spc-A.json")["bound"] is None


def test_limit_exits_4(tiny_files, tmp_path):
    src, _ = tiny_files
    rc = run_cli(
        "solve", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", src / "fleet.json", "--scenario", "B", "--chargers", "spc",
        "--gap", 0, "--node-limit", 1, "--out", tmp_path / "lim",
    )
    assert rc == 4


def test_solve_without_limits_stops_at_the_default_node_limit(tmp_path):
    # No --node-limit and no config: the search stops at the default node
    # limit with its plan and exit code 4. Without one, this 5-vehicle
    # fleet kept solve running for minutes, so the subprocess is bounded.
    assert run_cli("generate", "--vehicles", 5, "--seed", 3, "--out", tmp_path) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(instance_module.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "evplan.cli", "solve", "--fleet", str(tmp_path / "fleet.json"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 4, proc.stderr
    doc = strict_json(tmp_path / "solution_spc-A.json")
    assert doc["status"] == "limit" and doc["nodes"] == DEFAULT_NODE_LIMIT
    assert doc["columns"] is not None and doc["gap"] > 0.10


def test_report_of_plan_less_solution_exits_2(tiny_files, tmp_path, capsys):
    src, _ = tiny_files
    inputs = ("--grid", src / "grid.json", "--demand", src / "demand.csv",
              "--fleet", src / "fleet.json")
    rc = run_cli("solve", *inputs, "--scenario", "B", "--chargers", "spc",
                 "--gap", 0, "--node-limit", 1, "--out", tmp_path)
    assert rc == 4
    sol = tmp_path / "solution_spc-B.json"
    assert json.loads(sol.read_text())["columns"] is None
    capsys.readouterr()
    rc = run_cli("report", *inputs, "--solutions", sol, "--out", tmp_path / "rep")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(sol) in err and "status limit" in err


def test_report_outputs(tiny_files, tmp_path):
    src, _ = tiny_files
    outs = []
    for chargers in ("spc", "mpc"):
        for scen in ("A", "B"):
            d = tmp_path / f"{chargers}{scen}"
            rc = run_cli(
                "solve", "--grid", src / "grid.json", "--demand", src / "demand.csv",
                "--fleet", src / "fleet.json", "--scenario", scen,
                "--chargers", chargers, "--gap", 0, "--out", d,
            )
            assert rc == 0
            outs.append(d / f"solution_{chargers}-{scen}.json")
    # The report recomputes each cost from the binaries, not from the JSON.
    doc = json.loads(outs[0].read_text())
    cost = doc["objective"]
    outs[0].write_text(json.dumps(dict(doc, objective=cost + 1000.0)))
    rep = tmp_path / "rep"
    rc = run_cli(
        "report", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", src / "fleet.json", "--solutions", *outs, "--out", rep,
    )
    assert rc == 0
    lines = (rep / "costs.csv").read_text().splitlines()
    assert len(lines) == 5  # header + four cases
    costs = {row["case"]: row["cost"] for row in csv.DictReader(lines)}
    assert float(costs["spc-A"]) == pytest.approx(cost)
    assert (rep / "charger_table.csv").exists()
    assert (rep / "injections.csv").read_text().startswith("case,node,t,value")


@pytest.fixture(scope="module")
def solved_spc_a(tiny_files, tmp_path_factory):
    src, _ = tiny_files
    out = tmp_path_factory.mktemp("solved")
    rc = run_cli("solve", "--grid", src / "grid.json", "--demand", src / "demand.csv",
                 "--fleet", src / "fleet.json", "--scenario", "A", "--chargers", "spc",
                 "--gap", 0, "--out", out)
    assert rc == 0
    return out / "solution_spc-A.json"


@pytest.mark.parametrize("gap", ["nan", "-3", "inf"])
def test_report_gap_outside_its_range_exits_2(gap, tiny_files, solved_spc_a, tmp_path, capsys):
    src, _ = tiny_files
    rc = run_cli("report", "--grid", src / "grid.json", "--demand", src / "demand.csv",
                 "--fleet", src / "fleet.json", "--solutions", solved_spc_a, f"--gap={gap}",
                 "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_report_of_one_configuration_twice_exits_2(tiny_files, solved_spc_a, tmp_path, capsys):
    src, _ = tiny_files
    rc = run_cli("report", "--grid", src / "grid.json", "--demand", src / "demand.csv",
                 "--fleet", src / "fleet.json", "--solutions", solved_spc_a, solved_spc_a,
                 "--out", tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {solved_spc_a}: ") and "spc-A" in err
    assert not (tmp_path / "charger_table.csv").exists()


def test_report_missing_solution_exits_2(tiny_files, tmp_path):
    src, _ = tiny_files
    rc = run_cli(
        "report", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", src / "fleet.json", "--solutions", tmp_path / "ghost.json",
        "--out", tmp_path,
    )
    assert rc == 2


def test_sweep_csv(tiny_files, tmp_path):
    src, _ = tiny_files
    rc = run_cli(
        "sweep", "--grid", src / "grid.json", "--demand", src / "demand.csv",
        "--fleet", src / "fleet.json", "--scenario", "A", "--chargers", "mpc",
        "--sweep", "1.0,1.2", "--gap", 0, "--out", tmp_path,
    )
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("multiplier,slow_chargers")


def strict_json(path):
    """Parse ``path`` rejecting NaN and infinities, which are not JSON."""

    def reject(token):
        raise ValueError(f"{path}: non-standard JSON constant {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_unproven_bound_is_written_as_null(tiny_files, tmp_path):
    src, _ = tiny_files
    inputs = ("--grid", src / "grid.json", "--demand", src / "demand.csv",
              "--fleet", src / "fleet.json", "--scenario", "A", "--chargers", "spc")
    assert run_cli("solve", *inputs, "--gap", 0, "--out", tmp_path) == 0
    assert run_cli("solve", *inputs, "--import", tmp_path / "solution_spc-A.txt",
                   "--out", tmp_path / "imp") == 0
    imported = tmp_path / "imp" / "solution_spc-A.json"
    doc = strict_json(imported)
    assert doc["status"] == "imported" and doc["bound"] is None
    rep = tmp_path / "rep"
    assert run_cli("report", *inputs[:6], "--solutions", imported, "--out", rep) == 0
    (row,) = strict_json(rep / "study_report.json")["costs"]
    assert row["bound"] is None and row["cost"] == doc["objective"]


def test_report_prices_each_file_with_its_counting_rule(tmp_path):
    assert run_cli("generate", "--vehicles", 8, "--seed", 3, "--out", tmp_path) == 0
    fleet = ("--fleet", tmp_path / "fleet.json")
    rc = run_cli("solve", *fleet, "--chargers", "mpc", "--scenario", "A",
                 "--mpc-slow-literal", "--node-limit", 100, "--out", tmp_path)
    assert rc in (0, 4)
    doc = json.loads((tmp_path / "solution_mpc-A.json").read_text())
    assert doc["mpc_slow_literal"] is True
    slow_chargers = sum(doc["counts"]["slow_chargers"])
    # Hold every slow plug without slow charging: the literal rule's counts
    # (slow chargers by plugs) stay as solved, the default rule needs no slow
    # charger at all, so the two rules disagree on any plan with a slow plug.
    doc["columns"]["slow_charge"] = np.zeros_like(doc["columns"]["slow_charge"]).tolist()
    literal = tmp_path / "held_plugs.json"
    literal.write_text(json.dumps(doc))

    def report(path, out):
        assert run_cli("report", *fleet, "--solutions", path, "--out", out) == 0
        (row,) = csv.DictReader((out / "costs.csv").read_text().splitlines())
        table = csv.DictReader((out / "charger_table.csv").read_text().splitlines())
        (total,) = [r for r in table if r["node"] == "total"]
        return float(row["cost"]), int(total["slow_chargers"])

    assert report(literal, tmp_path / "rep") == (doc["objective"], slow_chargers)
    # A file without the field is priced with the default rule: slow chargers
    # by the slow-charge peak, which this plan holds below its slow-plug peak.
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({k: v for k, v in doc.items() if k != "mpc_slow_literal"}))
    cost, slow = report(legacy, tmp_path / "rep_default")
    assert slow < slow_chargers and cost < doc["objective"]


def test_report_linearizes_once(tiny_files, tmp_path, monkeypatch):
    src, inst = tiny_files
    inputs = ("--grid", src / "grid.json", "--demand", src / "demand.csv",
              "--fleet", src / "fleet.json")
    paths = []
    for chargers in ("spc", "mpc"):
        for scen in ("A", "B"):
            rc = run_cli("solve", *inputs, "--scenario", scen, "--chargers", chargers,
                         "--gap", 0, "--out", tmp_path)
            assert rc == 0
            paths.append(tmp_path / f"solution_{chargers}-{scen}.json")
    calls = []
    real = instance_module.solve_load_flow

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(instance_module, "solve_load_flow", counting)
    assert run_cli("report", *inputs, "--solutions", *paths, "--out", tmp_path / "rep") == 0
    assert len(calls) == inst.horizon
    docs = [json.loads(p.read_text()) for p in paths]
    costs = strict_json(tmp_path / "rep" / "study_report.json")["costs"]
    assert {c["case"]: c["cost"] for c in costs} == {d["label"]: d["objective"] for d in docs}


@pytest.fixture(scope="module")
def other_fleets(tmp_path_factory):
    """Fleets of 2 and 5 vehicles on the bundled grid, each with a plan."""
    out = tmp_path_factory.mktemp("fleets")
    for n in (2, 5):
        assert run_cli("generate", "--vehicles", n, "--seed", 3, "--out", out / f"{n}") == 0
        rc = run_cli("solve", "--fleet", out / f"{n}" / "fleet.json", "--scenario", "A",
                     "--chargers", "spc", "--node-limit", 200, "--out", out / f"{n}")
        assert rc in (0, 4)
        plan = out / f"{n}" / "solution_spc-A.json"
        assert json.loads(plan.read_text())["columns"] is not None
    return out


@pytest.mark.parametrize("planned, reported", [(5, 2), (2, 5)])
def test_report_of_a_plan_for_another_fleet_exits_2(planned, reported, other_fleets,
                                                     tmp_path, capsys):
    plan = other_fleets / f"{planned}" / "solution_spc-A.json"
    rc = run_cli("report", "--fleet", other_fleets / f"{reported}" / "fleet.json",
                 "--solutions", plan, "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {plan}: ")
    assert not (tmp_path / "costs.csv").exists()


def test_report_of_a_plan_for_another_grid_exits_2(tiny_files, solved_spc_a, tmp_path, capsys):
    src, _ = tiny_files
    plan = tmp_path / "plan.json"
    plan.write_text(_edited(solved_spc_a, lambda d: d["node_ids"].reverse()))
    rc = run_cli("report", "--grid", src / "grid.json", "--demand", src / "demand.csv",
                 "--fleet", src / "fleet.json", "--solutions", plan, "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {plan}: ")


def test_demand_omitting_a_rated_node_reads_as_zero(tiny_files, tmp_path):
    # solve and report both read the omitted node as a row of zeros.
    src, inst = tiny_files
    header, *rows = (src / "demand.csv").read_text().splitlines()
    rated = {b.id for b in inst.network.buses if b.rating_kva is not None}
    k = next(i for i, row in enumerate(rows) if int(row.split(",")[0]) in rated)
    node, *cells = rows[k].split(",")
    variants = {"omitted": rows[:k] + rows[k + 1:],
                "zero": rows[:k] + [",".join([node] + ["0"] * len(cells))] + rows[k + 1:]}
    reports = {}
    for name, kept in variants.items():
        d = tmp_path / name
        d.mkdir()
        (d / "demand.csv").write_text("\n".join([header, *kept]) + "\n")
        inputs = ("--grid", src / "grid.json", "--demand", d / "demand.csv",
                  "--fleet", src / "fleet.json")
        assert run_cli("solve", *inputs, "--scenario", "A", "--chargers", "spc",
                       "--gap", 0, "--out", d) == 0
        assert run_cli("report", *inputs, "--solutions", d / "solution_spc-A.json",
                       "--out", d / "rep") == 0
        reports[name] = [(d / "rep" / f).read_text() for f in ("costs.csv", "injections.csv")]
    assert f"\n{node}," not in "\n".join(variants["omitted"])
    assert reports["omitted"] == reports["zero"]
