"""The four workloads. Each round makes the same pipeline calls on the same
inputs; only those calls run inside the clock. A run's first round is an
untimed warm-up, checked in full between its pipeline calls; the timed
rounds that follow run no checks and must reproduce it.

Sizes are set so that a run fits its warm-up and two or more timed rounds
in about half a minute on two cores; the README gives the reasons and the
reference figures.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from evplan import analysis, builder, instance, mps_io, solution, verify
from evplan.solution import SolverConfig

import apart
import checks
import inputs

DESK_VEHICLES = 17
DESK_FLEET_SEED = 42
DESK_GAP = 0.10
# At 200 nodes all four configurations report a plan, and both dominance
# faults of the search show.
DESK_NODES = 200
HIGHS_SECONDS = 1.0

# The first instances of the acceptance suite's tiny battery (seeds 1000 on).
# They are fixed: instance difficulty is heavy-tailed (0.15 s to 2.4 s for
# the four solves of one instance), so ten drawn per seed would move the
# round time by a quarter and the summed optima by a tenth from seed to seed.
TINY_SEEDS = range(1000, 1010)
EXACT = SolverConfig(gap=0.0, abs_gap=1e-9)

OUT = Path(__file__).resolve().parent / "out"

EXPORT_VEHICLES = 50
SCREEN_FLEETS = 2
SCREEN_VEHICLES = 5


# Record keys that only the checked warm-up round fills in, or that are times.
CHECK_ONLY = {"runtime_s", "exact_flows", "highs_bound", "highs_incumbent",
              "plans_judged", "reference_cost", "reference_feasible"}


class Clock:
    """Accumulates the time spent inside ``with clock:`` blocks and keeps
    the tracer recording only there."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self):
        self.tracer.active = True
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._start
        self.tracer.active = False


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cases: list[dict] = field(default_factory=list)
    plan_cost: float = 0.0
    proven_bound: float = 0.0

    def signature(self):
        """What a repeated round must reproduce exactly: everything but the
        solver's own timing and the figures only checks compute."""
        return (self.attempted, self.failed,
                [{k: v for k, v in c.items() if k not in CHECK_ONLY} for c in self.cases])


def _workdir(name) -> Path:
    """A scratch directory of this round's own, so runs can share a checkout."""
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT))


def _label(chargers, scenario):
    return f"{chargers}-{scenario}"


def _solve_record(label, model, sol, presolved):
    return {
        "case": label,
        "status": sol.status,
        "objective": sol.objective,
        "bound": float(sol.bound),
        "gap": sol.gap,
        "nodes": sol.nodes,
        "lp_iterations": sol.lp_iterations,
        "runtime_s": sol.runtime_s,
        "rows": model.n_rows,
        "cols": model.n_cols,
        "nnz": int(model.A.nnz),
        "presolved_rows": presolved[0],
        "presolved_cols": presolved[1],
        "presolved_nnz": presolved[2],
    }


def _presolve_sizes(tracer):
    c = tracer.counts
    return (c["presolve.rows"], c["presolve.cols"], c["presolve.nnz"])


def _solve(tracer, inst, model, config):
    """solve_plan plus the model size after presolve, read by the tracer."""
    before = _presolve_sizes(tracer)
    sol = solution.solve_plan(inst, config, model=model)
    after = _presolve_sizes(tracer)
    return sol, tuple(int(a - b) for a, b in zip(after, before))


class DeskStudy:
    """Bundled grid and demand, one commute fleet, all four configurations,
    the full pipeline to the report."""

    name = "desk-study"

    def make_inputs(self, seed):
        # The study is fixed: its two failing dominance orderings (a fault
        # of the branch-and-bound search) must fail the same way on every run.
        network, demand = inputs.bundled_grid()
        return network, demand, inputs.commute_fleet(network, DESK_VEHICLES, DESK_FLEET_SEED)

    def run_round(self, data, clock, tracer, check):
        network, demand, fleet = data
        config = SolverConfig(gap=DESK_GAP, node_limit=DESK_NODES)
        out = Outcome()
        cases, costs = [], {}
        workdir = _workdir(self.name)
        saved = []  # (record, saved model) of each plan, for one HiGHS child process
        try:
            for chargers, scenario in inputs.CONFIGS:
                label = _label(chargers, scenario)
                with clock:
                    inst = instance.prepare_instance(
                        network, demand, fleet.schedule, fleet.vehicles,
                        scenario=scenario, chargers=chargers)
                    model = builder.build_plan_model(inst)
                    sol, presolved = _solve(tracer, inst, model, config)
                    report = None
                    if sol.feasible:
                        report = verify.verify_solution(inst, sol.assignment, counts=sol.counts)
                out.attempted += 1
                out.failed += not sol.feasible
                costs[label] = sol.objective
                record = _solve_record(label, model, sol, presolved)
                out.cases.append(record)
                if sol.feasible:
                    out.plan_cost += sol.objective
                    out.proven_bound += float(sol.bound)
                if check and sol.feasible:
                    problems, record["exact_flows"] = checks.plan_problems(
                        label, inst, sol.assignment, sol.objective, report)
                    out.problems += problems
                    saved.append((record, workdir / f"{label}.npz"))
                    apart.save_model(model, saved[-1][1])
                cases.append(analysis.StudyCase(label, inst, sol))
                del inst, model
            for big, small in (("spc-A", "mpc-A"), ("spc-B", "mpc-B"),
                               ("spc-A", "spc-B"), ("mpc-A", "mpc-B")):
                out.attempted += 1
                holds = (costs[big] is not None and costs[small] is not None
                         and costs[big] >= costs[small])
                out.failed += not holds
                out.cases.append({"case": f"{big} >= {small}", "holds": holds})
            # cost_comparison raises on a case without a plan, so the report
            # is only built when every configuration has one.
            if all(c.solution.feasible for c in cases):
                with clock:
                    analysis.build_report(cases, gap=DESK_GAP)
            refs = apart.highs_references([path for _, path in saved], HIGHS_SECONDS)
            for (record, _), (lower, upper) in zip(saved, refs, strict=True):
                record.update(highs_bound=lower, highs_incumbent=upper)
                out.problems += checks.bound_problems(
                    record["case"], record["objective"], record["bound"], lower, upper)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return out


class TinyBattery:
    """Seeded tiny instances in all four configurations, solved exactly and
    compared with the exhaustive oracle."""

    name = "tiny-battery"

    def make_inputs(self, seed):
        return [inputs.tiny_case(s) for s in TINY_SEEDS]

    def run_round(self, data, clock, tracer, check):
        out = Outcome()
        for k, case in enumerate(data):
            costs = {}
            for chargers, scenario in inputs.CONFIGS:
                label = f"tiny{k}/{_label(chargers, scenario)}"
                with clock:
                    inst = instance.prepare_instance(
                        case.network, case.demand, case.fleet.schedule, case.fleet.vehicles,
                        catalog=case.catalog, scenario=scenario, chargers=chargers,
                        limits=case.limits)
                    model = builder.build_plan_model(inst)
                    sol, presolved = _solve(tracer, inst, model, EXACT)
                    report = None
                    if sol.feasible:
                        report = verify.verify_solution(inst, sol.assignment, counts=sol.counts)
                out.attempted += 1
                out.failed += sol.status not in ("optimal", "infeasible")
                costs[_label(chargers, scenario)] = sol.objective
                out.cases.append(_solve_record(label, model, sol, presolved))
                if sol.feasible:
                    out.plan_cost += sol.objective
                    out.proven_bound += float(sol.bound)
                if check:
                    out.problems += self.check_case(label, inst, sol, report, tracer)
            if check:
                out.problems += checks.dominance_problems(f"tiny{k}", costs)
        return out

    def check_case(self, label, inst, sol, report, tracer):
        tracer.active = True  # the oracle is traced but stays outside wall_s
        try:
            ref = checks.run_oracle(inst)
        finally:
            tracer.active = False
        problems = checks.oracle_problems(label, sol.status, sol.objective, ref)
        if sol.feasible:
            plan, _flows = checks.plan_problems(label, inst, sol.assignment, sol.objective, report)
            problems += plan
            problems += checks.bound_problems(label, sol.objective, float(sol.bound),
                                              ref.objective, ref.objective)
        return problems


class Export:
    """The ``evplan build`` path: prepare, build and export to MPS, no solve."""

    def __init__(self, name, fleets, vehicles, mutate_first):
        self.name = name
        self.fleets = fleets
        self.vehicles = vehicles
        self.mutate_first = mutate_first  # all single-bit mutations of case 1's plan

    def make_inputs(self, seed):
        network, demand = inputs.bundled_grid()
        fleets = [inputs.commute_fleet(network, self.vehicles, inputs.sub_seed(seed, k))
                  for k in range(self.fleets)]
        return network, demand, fleets

    def run_round(self, data, clock, tracer, check):
        network, demand, fleets = data
        out = Outcome()
        workdir = _workdir(self.name)
        first = None
        exported = []  # (label, saved model, MPS file), re-read in one child process
        try:
            for k, fleet in enumerate(fleets):
                for chargers, scenario in inputs.CONFIGS:
                    label = f"fleet{k}/{_label(chargers, scenario)}"
                    path = workdir / f"fleet{k}-{chargers}-{scenario}.mps"
                    with clock:
                        inst = instance.prepare_instance(
                            network, demand, fleet.schedule, fleet.vehicles,
                            scenario=scenario, chargers=chargers)
                        model = builder.build_plan_model(inst)
                        mps_io.export_mps(model, path)
                    out.attempted += 1
                    record = {"case": label, "rows": model.n_rows, "cols": model.n_cols,
                              "nnz": int(model.A.nnz), "mps_bytes": path.stat().st_size}
                    if check:
                        mutate = self.mutate_first and not out.cases
                        if first is None:
                            first = inst.linearizations
                            problems, flows = checks.linearization_problems(label, inst)
                            out.problems += problems
                            record["exact_flows"] = flows
                        out.problems += checks.same_linearization(label, first, inst.linearizations)
                        saved = path.with_suffix(".npz")
                        apart.save_model(model, saved)
                        exported.append((label, saved, path))
                        plan = inputs.home_charging_plan(fleet.schedule, fleet.vehicles, inst.catalog)
                        problems, judged, feasible = checks.agreement_problems(
                            label, inst, model, plan, mutate)
                        out.problems += problems
                        cost = model.objective_value(solution.assignment_to_columns(model, inst, plan))
                        record.update(plans_judged=judged, reference_feasible=feasible,
                                      reference_cost=cost)
                        out.problems += checks.cost_problems(label, inst, plan, cost)
                        # No solve runs here: the plan figures are the
                        # reference plans' cost as the built model prices it.
                        out.plan_cost += cost
                        out.proven_bound += cost
                    else:
                        path.unlink()
                        path.with_suffix(".mps.columns.json").unlink()
                    out.cases.append(record)
                    del inst, model
            out.problems += apart.mps_problems(exported)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        DeskStudy(),
        TinyBattery(),
        Export("large-export", fleets=1, vehicles=EXPORT_VEHICLES, mutate_first=False),
        Export("fleet-screen", fleets=SCREEN_FLEETS, vehicles=SCREEN_VEHICLES, mutate_first=True),
    )
}
