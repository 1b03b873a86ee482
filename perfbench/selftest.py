"""Self-test of the benchmark's checkers: each must accept a correct input
and reject a deliberately wrong one.

    python3 perfbench/selftest.py

Exits 0 when every checker behaves, 1 otherwise. Takes a few seconds.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from evplan import builder, instance, mps_io, solution, verify  # noqa: E402

import apart  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import EXACT  # noqa: E402

SEED = 7


def solved_tiny():
    """A feasible tiny case solved exactly, with its oracle result."""
    for k in range(20):
        case = inputs.tiny_case(inputs.sub_seed(SEED, k))
        inst = instance.prepare_instance(
            case.network, case.demand, case.fleet.schedule, case.fleet.vehicles,
            catalog=case.catalog, limits=case.limits)
        model = builder.build_plan_model(inst)
        sol = solution.solve_plan(inst, EXACT, model=model)
        if sol.feasible:
            return inst, model, sol, checks.run_oracle(inst)
    raise RuntimeError("no feasible tiny case among the first 20")


def flipped(assignment, family, v, t):
    bits = {f: getattr(assignment, f).copy() for f in
            ("fast_charge", "slow_charge", "fast_plug", "slow_plug")}
    bits[family][v, t] ^= 1
    return replace(assignment, **bits)


def main() -> int:
    inst, model, sol, ref = solved_tiny()
    plan, opt = sol.assignment, sol.objective
    report = verify.verify_solution(inst, plan, counts=sol.counts)
    v, t = map(int, np.argwhere(~inst.schedule.parked.any(axis=2))[0])
    bad_plan = flipped(plan, "slow_plug", v, t)
    bad_report = verify.verify_solution(inst, bad_plan, counts=solution.recompute_counts(inst, bad_plan))
    price = inst.catalog.slow_plug_cost
    # A model that forgets the no-free-energy rule must disagree with the
    # verifier on some single-bit mutation.
    loose = builder.build_plan_model(inst)
    loose.rhs[[r for r, meta in enumerate(loose.row_meta) if meta[:1] == ("soc_final",)]] -= 10.0

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path, saved = Path(tmp) / "tiny.mps", Path(tmp) / "tiny.npz"
        mps_io.export_mps(model, path)
        apart.save_model(model, saved)
        [(lower, upper)] = apart.highs_references([saved], 10.0)
        good_mps = apart.mps_problems([("mps", saved, path)])
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("    C") and "R" in line)
        parts = lines[k].split()
        parts[2] = repr(float(parts[2]) + 1.0)
        lines[k] = "    " + "  ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        bad_mps = apart.mps_problems([("mps", saved, path)])

    cases = [
        ("plan checker", checks.plan_problems("plan", inst, plan, opt, report)[0],
         checks.plan_problems("plan", inst, bad_plan, opt, bad_report)[0]),
        ("cost checker", checks.cost_problems("cost", inst, plan, opt),
         checks.cost_problems("cost", inst, plan, opt + price)),
        ("bound checker (oracle)", checks.bound_problems("bound", opt, sol.bound, ref.objective, ref.objective),
         checks.bound_problems("bound", opt, ref.objective + price, ref.objective, ref.objective)),
        ("bound checker (HiGHS)", checks.bound_problems("bound", opt, sol.bound, lower, upper),
         checks.bound_problems("bound", opt, upper + 1.0, lower, upper)),
        ("oracle checker", checks.oracle_problems("oracle", sol.status, opt, ref),
         checks.oracle_problems("oracle", sol.status, opt, replace(ref, objective=ref.objective + 1.0))),
        ("agreement checker", checks.agreement_problems("agree", inst, model, plan, mutate=True)[0],
         checks.agreement_problems("agree", inst, loose, plan, mutate=True)[0]),
        ("MPS checker", good_mps, bad_mps),
    ]
    failures = 0
    for name, on_good, on_bad in cases:
        ok = not on_good and bool(on_bad)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: accepts the correct input: "
              f"{on_good or 'yes'}; rejects the wrong one: {on_bad[0] if on_bad else 'NO'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
