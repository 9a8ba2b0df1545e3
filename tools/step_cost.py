"""Simulator cost per step and per vehicle-step on five fixed runs, and the
cost of the sampling layers per detection record.

    PYTHONPATH=src python3 tools/step_cost.py [--repeats 5] [--only merge]
    python3 tools/step_cost.py --against ../other-checkout [--pairs 5] [--only ga]

Each run simulates through the virtual detector, as a calibration does, and
reports the minimum CPU time (``time.process_time``) of `--repeats` runs in
this process, in µs per step and per vehicle-step, with the run's
lane-change evaluations, neighbour-lane scans (the evaluations the exact
skip did not settle) and lane changes:

* ``ga``: the ga-search-2w workload's truth scenario (about 17 vehicles);
* ``recovery``: the recovery study's truth scenario (about 45 vehicles);
* ``merge``: the merge-fine-step workload's corridor at 0.1 s (about 73);
* ``paper``: the recovery truth scenario at the paper's scale, 0.1 s steps,
  a 1750 s horizon and a 600 s warm-up, with L4 lengthened to 12 km so that
  the subject stays on the route (about 180);
* ``batch16``: the 16 stage-1 design cases of the recovery calibration,
  simulated as one batch (``run_batch``). Its µs per step is per batch step.

The sampling layers report µs per detection record, each the minimum of
`--repeats` in this process:

* ``sample-ga`` and ``sample-batch16``: the detector sink, as the minimum
  time of the run with ``VirtualDetector`` sinks less the minimum with sinks
  that do nothing (the two alternate), ``virtual_detector_sample``, and the
  two together (``detector_us_per_record``);
* ``sample-ga`` and ``sample-merge``: ``extract_events`` and
  ``compute_traffic_mops`` on the ga truth run's dataset and on the
  merge-fine-step workload's field file (its field data, parsed back).

All runs use the scenario seed ``derive_scenario_seed(0, 0)``. The output is
one JSON object.

With ``--against CHECKOUT`` the script runs this checkout's
``tools/step_cost.py`` and the other's, each in a fresh interpreter, for
`--pairs` pairs in alternating order, and prints per run and µs metric the
median of the paired ratios this / other: a drift of the host over minutes
moves both sides of a pair alike. It also lists every count (steps,
vehicle-steps, lane-change evaluations and scans, lane changes, records,
observations) that differs between the two checkouts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from avcalib.demo import recovery_calibration_config, recovery_truth_scenario  # noqa: E402
from avcalib.doe import build_orthogonal_array, map_levels_to_values  # noqa: E402
from avcalib.params import build_parameter_space  # noqa: E402
from avcalib.fielddata import export_detection_csv, extract_events, parse_field_data  # noqa: E402
from avcalib.metrics import compute_traffic_mops  # noqa: E402
from avcalib.pipeline import (  # noqa: E402
    apply_parameters,
    derive_scenario_seed,
    generate_field_data,
)
from avcalib.roadsim import (  # noqa: E402
    VirtualDetector,
    run_batch,
    virtual_detector_sample,
)
from workloads import STREAM_SEED, ga_scenario, ga_truth, merge_scenario  # noqa: E402

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


def simulate(configs, sinks=None):
    """The logs of `configs` run as one batch through `sinks` (default: a
    detector each)."""
    logs = run_batch(configs, sinks or [VirtualDetector(cfg) for cfg in configs])
    for log in logs:
        if log.stopped_by is not None:
            raise log.stopped_by
    return logs


def least(fn, repeats):
    """The minimum CPU time of `repeats` calls of `fn`, and its last result."""
    best = None
    for _ in range(repeats):
        t0 = time.process_time()
        result = fn()
        cpu = time.process_time() - t0
        best = cpu if best is None else min(best, cpu)
    return best, result


def measure(configs, repeats):
    best, logs = least(lambda: simulate(configs), repeats)
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
        "lc_evaluations": sum(log.lc_evaluations for log in logs),
        "lc_scans": sum(log.lc_scans for log in logs),
        "lane_changes": sum(len(log.lane_changes) for log in logs),
    }


def _us(seconds, records):
    return round(1e6 * seconds / records, 2)


def measure_sink(configs, repeats):
    """The detector sink and ``virtual_detector_sample`` per record."""
    with_sink, bare = [], []
    for _ in range(repeats):
        detectors = [VirtualDetector(cfg) for cfg in configs]
        with_sink.append(least(lambda: simulate(configs, detectors), 1)[0])
        bare.append(least(lambda: simulate(configs, [lambda case: None] * len(configs)), 1)[0])
    sample, datasets = least(lambda: [virtual_detector_sample(d) for d in detectors], repeats)
    records = sum(len(ds) for ds in datasets)
    sink = min(with_sink) - min(bare)
    return {
        "records": records,
        "sink_us_per_record": _us(sink, records),
        "sample_us_per_record": _us(sample, records),
        "detector_us_per_record": _us(sink + sample, records),
    }


def measure_extraction(dataset, repeats):
    """``extract_events`` and ``compute_traffic_mops`` per record."""
    records = len(dataset)
    return {
        "records": records,
        "observations": len(dataset.obs_vehicle),
        "extract_events_us_per_record": _us(
            least(lambda: extract_events(dataset), repeats)[0], records
        ),
        "compute_traffic_mops_us_per_record": _us(
            least(lambda: compute_traffic_mops(dataset), repeats)[0], records
        ),
    }


def merge_field_file():
    """The merge-fine-step workload's field data, written and parsed back."""
    scenario = merge_scenario()
    text = export_detection_csv(generate_field_data(scenario, STREAM_SEED))
    return parse_field_data(io.StringIO(text), detection_range=scenario.detection_range)


def sample_ga(repeats):
    configs = RUNS["ga"]()
    out = measure_sink(configs, repeats)
    detector = VirtualDetector(configs[0])
    simulate(configs, [detector])
    out.update(measure_extraction(virtual_detector_sample(detector), repeats))
    return out


LAYERS = {
    "sample-ga": sample_ga,
    "sample-batch16": lambda repeats: measure_sink(stage1_batch(), repeats),
    "sample-merge": lambda repeats: measure_extraction(merge_field_file(), repeats),
}


COUNTS = ("cases", "steps", "vehicle_steps", "lc_evaluations", "lc_scans", "lane_changes",
          "records", "observations")


def against(other, args) -> dict:
    """Median paired ratio (this / other) per run and µs metric over
    `args.pairs` alternating pairs of fresh processes, and the counts that
    differ between the two."""
    scripts = {
        "this": Path(__file__).resolve(),
        "other": Path(other).resolve() / "tools" / "step_cost.py",
    }
    flags = ["--repeats", str(args.repeats)] + [f"--only={name}" for name in args.only or ()]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    ratios: dict = {}
    differ = set()
    for pair in range(args.pairs):
        sides = ["this", "other"] if pair % 2 == 0 else ["other", "this"]
        out = {}
        for side in sides:
            done = subprocess.run(
                [sys.executable, str(scripts[side]), *flags],
                env=env, cwd=scripts[side].parent.parent, capture_output=True, text=True,
            )
            if done.returncode:
                sys.exit(f"{scripts[side]} failed:\n{done.stderr}")
            out[side] = json.loads(done.stdout)
        for run, metrics in out["this"].items():
            for metric, value in metrics.items():
                theirs = out["other"].get(run, {}).get(metric)
                if "us_per" in metric and theirs:
                    ratios.setdefault(run, {}).setdefault(metric, []).append(value / theirs)
                elif metric in COUNTS and theirs is not None and value != theirs:
                    differ.add(f"{run}.{metric}")
    return {
        "other": str(Path(other).resolve()),
        "pairs": args.pairs,
        "median_ratio": {
            run: {m: round(statistics.median(r), 3) for m, r in metrics.items()}
            for run, metrics in ratios.items()
        },
        "counts_differ": sorted(differ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", choices=sorted(RUNS) + sorted(LAYERS), action="append")
    parser.add_argument("--against", metavar="CHECKOUT")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.against:
        out = against(args.against, args)
    else:
        out = {}
        for name in args.only or [*RUNS, *LAYERS]:
            out[name] = (measure(RUNS[name](), args.repeats) if name in RUNS
                         else LAYERS[name](args.repeats))
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
