"""Bundled synthetic scenarios.

Two corridors ship with the package:

* ``recovery_scenario`` drives the end-to-end synthetic recovery study (and
  the quickstart). It is following-dominated: background drivers have a
  tight desired-speed spread and a high lane-change incentive bar, so the
  slow subject collects a long platoon and the vehicle-level objective
  flows through the car-following headway statistic, which responds
  smoothly to the planted spacing parameters. Ground-truth inflows sit on
  one stage-1 design case; two background spacing parameters (desired time
  gap and jam gap) are planted at +20 percent, the edge of the search box.

* ``showcase_scenario`` is an interactive merge corridor with slow on-ramps
  and a wide desired-speed spread; it produces lane changes and cut-ins and
  is the right input for demonstrating event extraction and the evaluation
  report.

Both run on the same four-link corridor, as does ``paper_truth_scenario``,
the recovery truth scenario at the paper's step and horizon.
"""

from __future__ import annotations

import functools
from dataclasses import replace

from .pipeline import (
    CalibrationConfig,
    CandidateParam,
    ExtractionConfig,
    PreprocessConfig,
    Stage1Config,
    Stage2Config,
    apply_parameters,
    get_parameter,
)
from .roadsim import (
    BehaviorSpec,
    Entrance,
    IdmParams,
    LaneChangeParams,
    Link,
    RoadNetwork,
    ScenarioConfig,
)
from .roadsim.network import KMH
from .saga import SagaConfig

# entrance inflows the calibration starts from, pcu/h; rates shrink with
# distance from the route start so every entrance contributes a comparable
# share of what the subject observes
RECOVERY_INITIAL_INPUTS = {"E1": 240.0, "E2": 270.0, "E3": 330.0, "E4": 420.0}

# behavior parameters planted away from their defaults when generating the
# synthetic "field" data: value = default * factor (the search-box edge)
RECOVERY_PLANTED = {
    "background.cf.T": 1.2,   # 1.2 s  -> 1.44 s
    "background.cf.s0": 1.2,  # 2.0 m  -> 2.4 m
}

# candidate order matters for the saturated 2-level screening design: the
# planted pair sits on the two basic columns and structurally inert
# lane-change parameters absorb the interaction-aliased columns
RECOVERY_CANDIDATES = (
    "background.cf.T",
    "background.cf.s0",
    "background.lc.min_headway_front",
    "background.cf.a_max",
    "background.lc.min_headway_rear",
    "background.lc.advantage_threshold",
    "background.lc.max_decel_own",
    "background.cf.b",
    "background.cf.delta",
    "subject.cf.a_max",
)

RECOVERY_TRUTH_CASE = 5  # stage-1 design row used as ground-truth inflows

RECOVERY_EXTRACTION = ExtractionConfig(cutin_front_max=100.0, cf_max_gap=40.0)

# L4 of the paper-scale corridor: long enough that the subject, at its
# desired speed, stays on the route through the 1750 s horizon
PAPER_L4 = 12000.0


def _corridor(l4: float, speed_limit: float, entry_speed: float) -> RoadNetwork:
    """Four two-lane links in a row, 500, 700 and 1000 m and then `l4` m
    long, all at `speed_limit` km/h, and the subject's route along them;
    entrance Ek at the start of link Lk, E2 to E4 at `entry_speed` km/h."""
    names = ("L1", "L2", "L3", "L4")
    links = tuple(
        Link(id=n, length=length, lane_count=2, speed_limit=speed_limit,
             downstream=names[i + 1] if i < 3 else None)
        for i, (n, length) in enumerate(zip(names, (500.0, 700.0, 1000.0, l4)))
    )
    entrances = tuple(
        Entrance(id=f"E{i + 1}", link=n, entry_speed=entry_speed if i else None)
        for i, n in enumerate(names)
    )
    return RoadNetwork(links=links, entrances=entrances, subject_route=names)


def recovery_scenario(seed: int = 0) -> ScenarioConfig:
    return _recovery_scenario(seed, 2200.0)


def _recovery_scenario(seed: int, l4: float) -> ScenarioConfig:
    network = _corridor(l4, speed_limit=70.0, entry_speed=60.0)
    lane_change = LaneChangeParams(advantage_threshold=6.0)
    behavior = {
        "background": BehaviorSpec(
            car_following=IdmParams(v0=19.4), lane_change=lane_change
        ),
        "subject": BehaviorSpec(
            car_following=IdmParams(v0=40.0 * KMH), lane_change=lane_change
        ),
    }
    return ScenarioConfig(
        network=network,
        entrance_inputs=dict(RECOVERY_INITIAL_INPUTS),
        behavior=behavior,
        total_time=440.0,
        warmup_time=100.0,
        time_step=0.2,
        detection_range=(-150.0, 150.0),
        speed_variation=0.05,
        seed=seed,
    )


def recovery_truth_values(scenario: ScenarioConfig | None = None) -> dict:
    """Ground-truth parameter values for the recovery study: the inflows of
    case RECOVERY_TRUTH_CASE of the recovery calibration's stage-1 design,
    plus the planted behavior values, `scenario`'s (default: the recovery
    scenario's) times their factors."""
    if scenario is None:
        scenario = recovery_scenario()
    truth = dict(_recovery_stage1_cases()[RECOVERY_TRUTH_CASE].values)
    for path, factor in RECOVERY_PLANTED.items():
        truth[path] = get_parameter(scenario, path) * factor
    return truth


@functools.cache
def _recovery_stage1_cases():
    # once per process: a whole config takes several times as long to build
    # as the rest of recovery_truth_values
    return recovery_calibration_config().stage1_design.cases


def recovery_truth_scenario(seed: int = 0) -> ScenarioConfig:
    scenario = recovery_scenario(seed)
    return apply_parameters(scenario, recovery_truth_values(scenario))


def paper_truth_scenario(seed: int = 0) -> ScenarioConfig:
    """The recovery truth scenario at the paper's scale: 0.1 s steps, a
    1750 s horizon and a 600 s warm-up, with L4 lengthened to PAPER_L4."""
    scenario = replace(
        _recovery_scenario(seed, PAPER_L4), time_step=0.1, total_time=1750.0, warmup_time=600.0
    )
    return apply_parameters(scenario, recovery_truth_values(scenario))


def recovery_calibration_config(
    master_seed: int = 0,
    field_data: str | None = None,
    output_dir: str | None = None,
    workers: int = 1,
) -> CalibrationConfig:
    """Scaled-down calibration configuration for the recovery study:
    4 entrances on a 16-run 4-level design, 10 behavior candidates on a
    16-run 2-level design, population 10 and at most 10 generations.

    Stage 1 evaluates the whole design (threshold 1.0) because the study
    asserts on the best case rather than the first acceptable one; stage 2
    keeps the usual 0.8 stop threshold. Stage 1 fits per-road densities in
    addition to the overall mean, since four inflows cannot be told apart
    through one scalar. The synthetic field data is simulator-generated and
    clean, so preprocessing is configured as the identity.
    """
    return CalibrationConfig(
        scenario=recovery_scenario(),
        field_data=field_data,
        preprocess=PreprocessConfig(smoothing_window_s=0.0, max_speed_jump=float("inf")),
        extraction=RECOVERY_EXTRACTION,
        stage1=Stage1Config(
            levels=4, delta=0.2, accuracy_threshold=1.0,
            per_road_density=True,
        ),
        stage2=Stage2Config(
            candidates=tuple(CandidateParam(id=p) for p in RECOVERY_CANDIDATES),
            levels=2,
            k_critical=5,
            delta=0.2,
            saga=SagaConfig(
                population_size=10,
                max_generations=10,
                pc_min=0.6,
                pc_max=0.9,
                pm_min=0.05,
                pm_max=0.25,
                accuracy_threshold=0.8,
            ),
        ),
        replications=1,
        workers=workers,
        output_dir=output_dir,
        master_seed=master_seed,
    )


def showcase_scenario(seed: int = 0) -> ScenarioConfig:
    """Merge corridor with slow on-ramps and a wide desired-speed spread;
    produces lane changes and cut-ins around the subject."""
    network = _corridor(2600.0, speed_limit=80.0, entry_speed=45.0)
    behavior = {
        "background": BehaviorSpec(car_following=IdmParams(), lane_change=LaneChangeParams()),
        "subject": BehaviorSpec(
            car_following=IdmParams(v0=50.0 * KMH), lane_change=LaneChangeParams()
        ),
    }
    return ScenarioConfig(
        network=network,
        entrance_inputs={"E1": 240.0, "E2": 270.0, "E3": 320.0, "E4": 450.0},
        behavior=behavior,
        total_time=400.0,
        warmup_time=100.0,
        time_step=0.2,
        detection_range=(-150.0, 150.0),
        speed_variation=0.18,
        seed=seed,
    )
