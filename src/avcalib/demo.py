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
"""

from __future__ import annotations

from .doe import build_orthogonal_array, map_levels_to_values
from .params import build_parameter_space
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


def recovery_scenario(seed: int = 0) -> ScenarioConfig:
    lengths = {"L1": 500.0, "L2": 700.0, "L3": 1000.0, "L4": 2200.0}
    names = list(lengths)
    links = tuple(
        Link(
            id=n,
            length=lengths[n],
            lane_count=2,
            speed_limit=70.0,
            downstream=names[i + 1] if i < 3 else None,
        )
        for i, n in enumerate(names)
    )
    entrances = (
        Entrance(id="E1", link="L1"),
        Entrance(id="E2", link="L2", entry_speed=60.0),
        Entrance(id="E3", link="L3", entry_speed=60.0),
        Entrance(id="E4", link="L4", entry_speed=60.0),
    )
    network = RoadNetwork(links=links, entrances=entrances, subject_route=tuple(names))
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
    """Ground-truth parameter values for the recovery study: inflows from
    one stage-1 design case plus the planted behavior values."""
    if scenario is None:
        scenario = recovery_scenario()
    space = build_parameter_space(
        {eid: scenario.entrance_inputs[eid] for eid in sorted(scenario.entrance_inputs)},
        delta=0.2,
    )
    oa = build_orthogonal_array(4, len(space))
    case = map_levels_to_values(oa, space)[RECOVERY_TRUTH_CASE]
    truth = dict(case.values)
    for path, factor in RECOVERY_PLANTED.items():
        truth[path] = get_parameter(scenario, path) * factor
    return truth


def recovery_truth_scenario(seed: int = 0) -> ScenarioConfig:
    scenario = recovery_scenario(seed)
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
    lengths = {"L1": 500.0, "L2": 700.0, "L3": 1000.0, "L4": 2600.0}
    names = list(lengths)
    links = tuple(
        Link(
            id=n,
            length=lengths[n],
            lane_count=2,
            speed_limit=80.0,
            downstream=names[i + 1] if i < 3 else None,
        )
        for i, n in enumerate(names)
    )
    entrances = (
        Entrance(id="E1", link="L1"),
        Entrance(id="E2", link="L2", entry_speed=45.0),
        Entrance(id="E3", link="L3", entry_speed=45.0),
        Entrance(id="E4", link="L4", entry_speed=45.0),
    )
    network = RoadNetwork(links=links, entrances=entrances, subject_route=tuple(names))
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
