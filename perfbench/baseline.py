"""One-off reference: the desk study at full size with the internal solver.

    python3 perfbench/baseline.py

Solves the bundled grid with a 100-vehicle commute fleet (seed 42) in the
four configurations at gap 0.10 and a node budget, and prints one line per
configuration: cost, proven bound, nodes, LP iterations and times. It takes
several minutes and is not a workload; the README quotes its figures.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from evplan import builder, instance, solution  # noqa: E402
from evplan.solution import SolverConfig  # noqa: E402

import inputs  # noqa: E402

VEHICLES = 100
FLEET_SEED = 42
NODES = 6000


def main() -> int:
    network, demand = inputs.bundled_grid()
    fleet = inputs.commute_fleet(network, VEHICLES, FLEET_SEED)
    config = SolverConfig(gap=0.10, node_limit=NODES)
    for chargers, scenario in inputs.CONFIGS:
        t0 = time.perf_counter()
        inst = instance.prepare_instance(network, demand, fleet.schedule, fleet.vehicles,
                                         scenario=scenario, chargers=chargers)
        model = builder.build_plan_model(inst)
        t1 = time.perf_counter()
        sol = solution.solve_plan(inst, config, model=model)
        t2 = time.perf_counter()
        print(json.dumps({
            "case": f"{chargers}-{scenario}", "status": sol.status, "objective": sol.objective,
            "bound": sol.bound, "gap": sol.gap, "nodes": sol.nodes,
            "lp_iterations": sol.lp_iterations, "prepare_build_s": round(t1 - t0, 2),
            "solve_s": round(t2 - t1, 2),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
