"""Simulator cost per step and per vehicle-step on five fixed runs.

    PYTHONPATH=src python3 tools/step_cost.py [--repeats 5] [--only merge]

Each run simulates through the virtual detector, as a calibration does, and
reports the minimum CPU time (``time.process_time``) of `--repeats` runs in
this process, in µs per step and per vehicle-step:

* ``ga``: the ga-search-2w workload's truth scenario (about 17 vehicles);
* ``recovery``: the recovery study's truth scenario (about 45 vehicles);
* ``merge``: the merge-fine-step workload's corridor at 0.1 s (about 73);
* ``paper``: the recovery truth scenario at the paper's scale, 0.1 s steps,
  a 1750 s horizon and a 600 s warm-up, with L4 lengthened to 12 km so that
  the subject stays on the route (about 180);
* ``batch16``: the 16 stage-1 design cases of the recovery calibration,
  simulated as one batch (``run_batch``); a checkout without ``run_batch``
  runs them one after another. Its µs per step is per batch step.

All runs use the scenario seed ``derive_scenario_seed(0, 0)``. The output is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from avcalib import roadsim  # noqa: E402
from avcalib.demo import recovery_calibration_config, recovery_truth_scenario  # noqa: E402
from avcalib.doe import build_orthogonal_array, map_levels_to_values  # noqa: E402
from avcalib.params import build_parameter_space  # noqa: E402
from avcalib.pipeline import apply_parameters, derive_scenario_seed  # noqa: E402
from avcalib.roadsim import VirtualDetector, run_scenario  # noqa: E402
from workloads import ga_scenario, ga_truth, merge_scenario  # noqa: E402

SEED = derive_scenario_seed(0, 0)
PAPER_L4 = 12000.0


def paper_scenario():
    sc = recovery_truth_scenario(SEED)
    links = tuple(
        replace(link, length=PAPER_L4) if link.id == "L4" else link for link in sc.network.links
    )
    return replace(
        sc, network=replace(sc.network, links=links),
        time_step=0.1, total_time=1750.0, warmup_time=600.0,
    )


def stage1_batch():
    cfg = recovery_calibration_config()
    inputs = cfg.scenario.entrance_inputs
    space = build_parameter_space({eid: inputs[eid] for eid in sorted(inputs)}, cfg.stage1.delta)
    cases = map_levels_to_values(build_orthogonal_array(cfg.stage1.levels, len(space)), space)
    return [replace(apply_parameters(cfg.scenario, c.values), seed=SEED) for c in cases]


RUNS = {
    "ga": lambda: [replace(apply_parameters(ga_scenario(), ga_truth(0)), seed=SEED)],
    "recovery": lambda: [recovery_truth_scenario(SEED)],
    "merge": lambda: [replace(merge_scenario(), seed=SEED)],
    "paper": lambda: [paper_scenario()],
    "batch16": stage1_batch,
}


def simulate(configs):
    """The logs of `configs` run through the detector: one batch where the
    simulator has batches, else one run each."""
    detectors = [VirtualDetector(cfg) for cfg in configs]
    if hasattr(roadsim.engine, "run_batch"):
        logs = roadsim.engine.run_batch(configs, detectors)
        for log in logs:
            if log.stopped_by is not None:
                raise log.stopped_by
        return logs
    return [run_scenario(cfg, det) for cfg, det in zip(configs, detectors)]


def measure(configs, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.process_time()
        logs = simulate(configs)
        cpu = time.process_time() - t0
        best = cpu if best is None else min(best, cpu)
    steps = max(log.steps for log in logs)
    vehicle_steps = sum(log.vehicle_steps for log in logs)
    return {
        "cases": len(configs),
        "steps": steps,
        "vehicle_steps": vehicle_steps,
        "vehicles_per_step": round(vehicle_steps / steps, 1),
        "cpu_s": round(best, 4),
        "us_per_step": round(1e6 * best / steps, 1),
        "us_per_vehicle_step": round(1e6 * best / vehicle_steps, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", choices=sorted(RUNS), action="append")
    args = parser.parse_args(argv)
    out = {name: measure(RUNS[name](), args.repeats) for name in args.only or RUNS}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
