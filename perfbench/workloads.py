"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks on its outputs.

Set-up runs in a fresh interpreter (`python3 perfbench/workloads.py setup
<workload> <seed> <dir>`), so that its time includes the imports. It writes
the inputs a user would hand to avcalib: a detection CSV plus a calibration
config or a scenario file. The benchmark process loads those before the
timed section.

The benchmark's runs must fit a fixed time budget and hold several passes
each, which a whole recovery-study calibration (about a minute on one core)
would overrun; see `GA_LINKS` and `GA_SAGA`.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from avcalib import pipeline
from avcalib.demo import (
    recovery_calibration_config,
    recovery_scenario,
    recovery_truth_values,
    showcase_scenario,
)
from avcalib.fielddata import export_detection_csv
from avcalib.pipeline import (
    EvalContext,
    ExtractionConfig,
    apply_parameters,
    config_to_dict,
    get_parameter,
    load_calibration_config,
    usable_field_mops,
)
from avcalib.roadsim import load_scenario, save_scenario

FIELD_CSV = "field.csv"
CONFIG_JSON = "config.json"
SCENARIO_JSON = "scenario.json"
ARTIFACTS = "artifacts"


@dataclass
class PassResult:
    """What one timed pass produced, reduced to what the checks and the
    metrics need."""

    simulations: int
    accuracy: float
    attempted: int
    failed: int
    digest: str
    checks: dict = field(default_factory=dict)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The simulator's arrival stream (the calibration's master seed) is the same
# in every run. Over master seeds 0-9 the simulated load of either corridor
# varies by about a fifth (interquartile range of vehicle-steps over the
# median), which would swamp any bound on run time. The benchmark seed draws
# the rest of the inputs instead: the planted truth of the calibration's
# field data, and the merge corridor's timed case.
STREAM_SEED = 0


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, stream])


# ---------------------------------------------------------------------------
# ga-search-2w: the shipped recovery calibration on a shortened corridor,
# except that phase II has a threshold it cannot reach, so it spends its
# whole budget, on two workers. The population is cut from 10 to 4, the
# corridor to about a third of its length and the horizon from 440 s to
# 180 s, so that one calibration takes about 12 s on two cores.

GA_SAGA = dict(population_size=4, max_generations=4, accuracy_threshold=1.0)
GA_WORKERS = 2
GA_LINKS = {"L1": 200.0, "L2": 250.0, "L3": 350.0, "L4": 800.0}
GA_WARMUP = 50.0
GA_TOTAL = 180.0
# The field data plants the desired time gap at 1.12-1.2 times its default;
# the shipped study plants it at 1.2, the edge of the search box. The study
# also plants the jam gap, but on this corridor the platoon behind the
# subject is too short for the jam gap to rank among the critical
# parameters, so the benchmark leaves it at its default.
GA_PLANTED = "background.cf.T"
GA_PLANTED_FACTORS = (1.12, 1.2)


def ga_scenario():
    base = recovery_scenario()
    links = tuple(replace(link, length=GA_LINKS[link.id]) for link in base.network.links)
    return replace(
        base,
        network=replace(base.network, links=links),
        warmup_time=GA_WARMUP,
        total_time=GA_TOTAL,
    )


def ga_truth(seed: int) -> dict:
    scenario = ga_scenario()
    # the study's ground-truth inflows, and the one planted parameter
    truth = {
        eid: x for eid, x in recovery_truth_values(scenario).items()
        if eid in scenario.entrance_inputs
    }
    factor = float(_rng(seed, 1).uniform(*GA_PLANTED_FACTORS))
    truth[GA_PLANTED] = get_parameter(scenario, GA_PLANTED) * factor
    return truth


def ga_setup(seed: int, out: Path) -> None:
    scenario = ga_scenario()
    field_data = pipeline.generate_field_data(apply_parameters(scenario, ga_truth(seed)), STREAM_SEED)
    export_detection_csv(field_data, out / FIELD_CSV)
    cfg = recovery_calibration_config(
        master_seed=STREAM_SEED,
        field_data=str(out / FIELD_CSV),
        output_dir=str(out / ARTIFACTS),
        workers=GA_WORKERS,
    )
    cfg = replace(
        cfg,
        scenario=scenario,
        stage2=replace(cfg.stage2, saga=replace(cfg.stage2.saga, **GA_SAGA)),
    )
    snapshot = config_to_dict(cfg)
    snapshot["output_dir"] = cfg.output_dir
    (out / CONFIG_JSON).write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


@dataclass
class GaInputs:
    config: object
    truth: dict


def ga_load(seed: int, out: Path) -> GaInputs:
    return GaInputs(load_calibration_config(out / CONFIG_JSON), ga_truth(seed))


def ga_pass(inputs: GaInputs) -> PassResult:
    cfg, truth = inputs.config, inputs.truth
    report = pipeline.calibrate(cfg)
    s1, s2 = report.stage1, report.stage2
    scores = (
        [c.accuracy for c in s1.cases]
        + [c.accuracy for c in s2.phase1_cases]
        + [a for gen in s2.saga.history for a in gen.accuracies]
    )
    # the recovery study's criterion 8 for what is planted here, plus the GA
    # running all generations
    grid_step = {
        eid: 2 * cfg.stage1.delta * x0 / (cfg.stage1.levels - 1)
        for eid, x0 in cfg.scenario.entrance_inputs.items()
    }
    checks = {
        "inflows_within_one_grid_step": all(
            abs(s1.best_values[eid] - truth[eid]) <= step + 1e-9 for eid, step in grid_step.items()
        ),
        "planted_parameter_critical": GA_PLANTED in s2.critical_set,
        "accuracy_at_least_0.8": s2.best_accuracy >= 0.8,
        "saga_generations_5": len(s2.saga.history) == GA_SAGA["max_generations"] + 1,
        "within_simulation_budget": bool(report.diagnostics["within_simulation_budget"]),
    }
    report_json = (Path(cfg.output_dir) / "report.json").read_bytes()
    return PassResult(
        simulations=report.total_simulations,
        accuracy=s2.best_accuracy,
        attempted=len(scores),
        failed=sum(not math.isfinite(a) for a in scores),
        digest=_digest(report_json),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# merge-fine-step: stage-2 cases on the lane-change-heavy merge corridor at
# the paper's 0.1 s step. L4 is lengthened and the warm-up raised so that the
# subject drives a 400 s live horizon through a filled corridor.

MERGE_STEP = 0.1
MERGE_WARMUP = 300.0
MERGE_TOTAL = 700.0
MERGE_L4 = 4600.0
MERGE_EXTRACTION = ExtractionConfig()
MERGE_PARAMETERS = (
    "background.cf.T",
    "background.cf.s0",
    "background.lc.advantage_threshold",
    "background.lc.min_headway_front",
)
# A timed pass scores one case, whose parameters are the field's scaled by
# factors drawn from this range; one case takes about 6 s, so a run holds
# several passes. The case with the field's own parameters is scored once
# before timing, as a check.
MERGE_FACTORS = (0.9, 1.1)


def merge_scenario():
    base = showcase_scenario()
    links = tuple(
        replace(link, length=MERGE_L4) if link.id == "L4" else link for link in base.network.links
    )
    return replace(
        base,
        network=replace(base.network, links=links),
        time_step=MERGE_STEP,
        warmup_time=MERGE_WARMUP,
        total_time=MERGE_TOTAL,
    )


def merge_setup(seed: int, out: Path) -> None:
    scenario = merge_scenario()
    export_detection_csv(pipeline.generate_field_data(scenario, STREAM_SEED), out / FIELD_CSV)
    save_scenario(scenario, out / SCENARIO_JSON)


@dataclass
class MergeInputs:
    scenario: object
    field_csv: Path
    field_case: dict
    drawn_case: dict


def merge_load(seed: int, out: Path) -> MergeInputs:
    scenario = load_scenario(out / SCENARIO_JSON)
    defaults = {p: get_parameter(scenario, p) for p in MERGE_PARAMETERS}
    rng = _rng(seed, 2)
    drawn = {p: x * float(rng.uniform(*MERGE_FACTORS)) for p, x in defaults.items()}
    return MergeInputs(scenario, out / FIELD_CSV, defaults, drawn)


def merge_check_pass(inputs: MergeInputs) -> PassResult:
    result = score_merge_cases(inputs, [inputs.field_case])
    result.checks["field_parameters_score_1"] = result.accuracy == 1.0
    return result


def merge_pass(inputs: MergeInputs) -> PassResult:
    return score_merge_cases(inputs, [inputs.drawn_case])


def score_merge_cases(inputs: MergeInputs, cases: list) -> PassResult:
    scenario = inputs.scenario
    field_data = pipeline.parse_field_data(
        inputs.field_csv, detection_range=scenario.detection_range
    )
    events = pipeline.extract_events(field_data, **MERGE_EXTRACTION.kwargs())
    ctx = EvalContext(
        scenario=scenario,
        stage=2,
        field_mops=usable_field_mops(pipeline.compute_vehicle_mops(events)),
        master_seed=STREAM_SEED,
        extraction=MERGE_EXTRACTION,
    )
    outcomes = [pipeline.evaluate_case(values, ctx) for values in cases]
    scores = [o.accuracy for o in outcomes]
    checks = {
        "every_case_feasible": all(o.feasible for o in outcomes),
        "no_collisions": all(o.collisions == 0 for o in outcomes),
        # a MoP with no observations is flagged missing (None) by design
        "finite_mops": all(
            o.mops is not None
            and all(e.value is None or math.isfinite(e.value) for e in o.mops)
            for o in outcomes
        ),
    }
    summary = [(o.accuracy, o.collisions, o.mops.to_dict() if o.mops else None) for o in outcomes]
    return PassResult(
        simulations=sum(o.n_simulations for o in outcomes),
        accuracy=max(scores),
        attempted=len(outcomes),
        failed=sum(not (o.feasible and math.isfinite(o.accuracy)) for o in outcomes),
        digest=_digest(repr(summary).encode()),
        checks=checks,
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    workers: int
    setup: object
    load: object
    run_pass: object
    # an untimed pass before the timed ones, for checks the timed pass
    # does not cover
    check_pass: object = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ga-search-2w", 0, GA_WORKERS, ga_setup, ga_load, ga_pass),
        Workload("merge-fine-step", 0, 1, merge_setup, merge_load, merge_pass, merge_check_pass),
    )
}


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "setup":
        sys.exit("usage: workloads.py setup <workload> <seed> <dir>")
    _, _, name, seed, out_dir = sys.argv
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        WORKLOADS[name].setup(int(seed), out)
