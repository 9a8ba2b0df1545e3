"""Two-stage calibration pipeline.

Stage 1 tunes entrance inflows against traffic-level measures over an
orthogonal-array design with early stopping. Stage 2 first screens every
candidate behavior parameter with a full orthogonal design plus range
analysis (phase I), then optimizes the critical subset with the adaptive
genetic algorithm (phase II), warm-started from the phase-I best level
combination. All simulator seeds derive from one master seed and the
replication index only, so every case in every stage sees the same random
draws (common random numbers) and a re-run reproduces the report exactly.

Because a case's outcome depends only on its inputs, each distinct case is
simulated once per calibration: a repeat, within a batch or from an earlier
one, gets the stored outcome. Every simulation count in a report therefore
counts simulations actually run, not cases scored. The distinct new cases of
a batch are simulated together (``roadsim.run_batch``), one batch per
worker.
"""

from __future__ import annotations

import json
import logging
import time as _time
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .detection import FieldDataset
from .doe import (
    build_orthogonal_array,
    level_values,
    map_levels_to_values,
    range_analysis,
)
from .fielddata import extract_events, parse_field_data, preprocess
from .metrics import (
    MoeReport,
    MopVector,
    CutinErrorParams,
    accuracy,
    compute_traffic_mops,
    compute_vehicle_mops,
    evaluate_moes,
)
from .params import ParameterSpace, ParameterSpec, build_parameter_space
from .roadsim import VirtualDetector, run_batch, run_scenario, virtual_detector_sample
from .roadsim.network import BehaviorSpec, ScenarioConfig, scenario_from_dict, scenario_to_dict
from .saga import SagaConfig, SagaResult, run_saga

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PreprocessConfig:
    smoothing_window_s: float = 0.5
    max_speed_jump: float = 15.0


@dataclass(frozen=True)
class ExtractionConfig:
    debounce_s: float = 1.0
    cutin_front_max: float = 50.0
    cutin_dedup_s: float = 10.0
    cf_max_gap: float = 120.0
    cf_min_duration: float = 5.0
    cf_min_speed: float = 1.0

    def kwargs(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class Stage1Config:
    levels: int = 4
    delta: float = 0.2
    accuracy_threshold: float = 0.8
    # add the per-road density MoPs from the catalog; the whole-route
    # average alone cannot attribute density to individual entrances
    per_road_density: bool = False


@dataclass(frozen=True)
class CandidateParam:
    id: str
    lower: float | None = None
    upper: float | None = None


@dataclass(frozen=True)
class Stage2Config:
    candidates: tuple[CandidateParam, ...]
    levels: int = 4
    k_critical: int = 10
    delta: float = 0.2
    saga: SagaConfig = field(default_factory=SagaConfig)

    def __post_init__(self):
        if self.k_critical > len(self.candidates):
            raise ValueError("k_critical exceeds the number of candidate parameters")


@dataclass(frozen=True)
class CalibrationConfig:
    scenario: ScenarioConfig
    stage1: Stage1Config
    stage2: Stage2Config
    field_data: str | None = None
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    cutin_error: CutinErrorParams = field(default_factory=CutinErrorParams)
    replications: int = 1
    workers: int = 1
    output_dir: str | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replication count must be >= 1")


def derive_scenario_seed(master_seed: int, replication: int) -> int:
    """Counter-based seed derivation shared by every evaluation (and by
    synthetic field generation): one stream per (master seed, replication),
    identical across cases and stages."""
    ss = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFFFFFFFFFF, 101, int(replication)])
    return int(ss.generate_state(1, np.uint64)[0])


def _derive_saga_seed(master_seed: int) -> int:
    ss = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFFFFFFFFFF, 202])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# parameter addressing: "<entrance id>" or "<class>.<cf|lc>.<field>"


def get_parameter(scenario: ScenarioConfig, path: str) -> float:
    if path in scenario.entrance_inputs:
        return float(scenario.entrance_inputs[path])
    cls, block, name = _split_path(path)
    spec = _behavior_spec(scenario, cls)
    target = spec.car_following if block == "cf" else spec.lane_change
    if not _has_parameter(target, name):
        raise ValueError(f"{path}: {type(target).__name__} has no parameter {name!r}")
    return float(getattr(target, name))


def apply_parameters(scenario: ScenarioConfig, values: dict) -> ScenarioConfig:
    """Return a scenario with the given parameter values applied.

    A well-formed path naming a parameter the active model does not have is
    skipped with a warning, so a case may carry values for models that are
    not in use.
    """
    inputs = dict(scenario.entrance_inputs)
    behavior = dict(scenario.behavior)
    for path in sorted(values):
        val = float(values[path])
        if path in inputs:
            inputs[path] = val
            continue
        cls, block, name = _split_path(path)
        spec = _behavior_spec(scenario, cls)
        if cls not in behavior:
            behavior[cls] = spec
        spec = behavior[cls]
        target = spec.car_following if block == "cf" else spec.lane_change
        if not _has_parameter(target, name):
            warnings.warn(f"parameter {path} does not apply to {type(target).__name__}; ignored")
            continue
        new_target = replace(target, **{name: val})
        if block == "cf":
            behavior[cls] = BehaviorSpec(car_following=new_target, lane_change=spec.lane_change)
        else:
            behavior[cls] = BehaviorSpec(car_following=spec.car_following, lane_change=new_target)
    return replace(scenario, entrance_inputs=inputs, behavior=behavior)


def _has_parameter(target, name: str) -> bool:
    """Only dataclass fields are parameters; methods and properties such as
    the car-following model's accel or spawn_gap are not."""
    return any(f.name == name for f in fields(target))


def _split_path(path: str):
    parts = path.split(".")
    if len(parts) != 3 or parts[1] not in ("cf", "lc"):
        raise ValueError(
            f"parameter path {path!r} must be an entrance id or '<class>.<cf|lc>.<name>'"
        )
    return parts[0], parts[1], parts[2]


def _behavior_spec(scenario: ScenarioConfig, cls: str) -> BehaviorSpec:
    if cls in scenario.behavior:
        return scenario.behavior[cls]
    if cls == "subject":
        return scenario.subject_behavior()
    raise ValueError(f"unknown vehicle class {cls!r}")


# ---------------------------------------------------------------------------
# case evaluation


@dataclass(frozen=True)
class EvalContext:
    """Everything one case evaluation needs; immutable and picklable so
    evaluations can fan out to worker processes."""

    scenario: ScenarioConfig
    stage: int
    field_mops: MopVector
    master_seed: int
    replications: int = 1
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    per_road: bool = False


@dataclass(frozen=True)
class CaseOutcome:
    accuracy: float
    mops: MopVector | None
    feasible: bool
    n_simulations: int
    collisions: int
    diagnostic: str = ""


def evaluate_case(values: dict, ctx: EvalContext) -> CaseOutcome:
    """Configure, simulate (one run per replication, fixed derived seeds)
    through the virtual detector, extract the stage MoPs, and score against
    the field MoPs: ``evaluate_batch`` for one case."""
    return evaluate_batch([values], ctx)[0]


def evaluate_batch(values_list, ctx: EvalContext) -> list[CaseOutcome]:
    """The outcome of every case of `values_list`, in order. Each
    replication simulates the cases still scoring as one batch. A run stores
    no frames; it stops at a gridlock or at the first live step without the
    subject, and its case then scores -inf with that diagnostic. An
    exception raised while a case's run is sampled and scored also scores
    that case -inf, with ``"<ExceptionType>: <message>"``; its batch-mates
    are unaffected."""
    scenarios = [apply_parameters(ctx.scenario, values) for values in values_list]
    outcomes: list[CaseOutcome | None] = [None] * len(scenarios)
    vectors = [[] for _ in scenarios]
    collisions = [0] * len(scenarios)

    def fail(i, n_sims, diagnostic, feasible=False, exc=None):
        # a scoring fault keeps its traceback in the log
        log.warning("case %s scored -inf: %s", values_list[i], diagnostic, exc_info=exc)
        outcomes[i] = CaseOutcome(
            accuracy=float("-inf"), mops=None, feasible=feasible,
            n_simulations=n_sims, collisions=collisions[i], diagnostic=diagnostic,
        )

    for rep in range(ctx.replications):
        live = [i for i, out in enumerate(outcomes) if out is None]
        if not live:
            break
        seed = derive_scenario_seed(ctx.master_seed, rep)
        configs = [replace(scenarios[i], seed=seed) for i in live]
        detectors = [VirtualDetector(cfg) for cfg in configs]
        for i, detector, sim_log in zip(live, detectors, run_batch(configs, detectors)):
            collisions[i] += sim_log.collision_count
            if sim_log.stopped_by is not None:
                fail(i, rep + 1, _describe(sim_log.stopped_by))
            elif not sim_log.feasible:
                fail(i, rep + 1, f"gridlock at t={sim_log.gridlock_at}")
            else:
                try:
                    dataset = virtual_detector_sample(detector)
                    if ctx.stage == 1:
                        mops = compute_traffic_mops(dataset, per_road=ctx.per_road)
                    else:
                        mops = compute_vehicle_mops(
                            extract_events(dataset, **ctx.extraction.kwargs())
                        )
                except Exception as exc:
                    fail(i, rep + 1, _describe(exc), feasible=True, exc=exc)
                else:
                    vectors[i].append(mops)
    for i, out in enumerate(outcomes):
        if out is not None:
            continue
        try:
            mean = MopVector.mean_of(vectors[i])
        except Exception as exc:
            fail(i, ctx.replications, _describe(exc), feasible=True, exc=exc)
            continue
        try:
            acc = accuracy(ctx.field_mops, mean)
        except ValueError as exc:  # no MoP to compare: the accuracy is undefined
            outcomes[i] = CaseOutcome(
                accuracy=float("-inf"), mops=mean, feasible=True,
                n_simulations=ctx.replications, collisions=collisions[i], diagnostic=str(exc),
            )
        except Exception as exc:
            fail(i, ctx.replications, _describe(exc), feasible=True, exc=exc)
        else:
            outcomes[i] = CaseOutcome(
                accuracy=acc, mops=mean, feasible=True,
                n_simulations=ctx.replications, collisions=collisions[i],
            )
    return outcomes


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _case_key(values: dict, ctx: EvalContext) -> str:
    """Every input evaluate_case reads, in canonical form: the scenario with
    the values applied, and every other EvalContext field. Floats go through
    repr, so equal keys mean equal inputs. Values for a parameter the model
    ignores build the same scenario, so they share a key."""
    case_ctx = replace(ctx, scenario=apply_parameters(ctx.scenario, values))
    return json.dumps(_to_plain(case_ctx), sort_keys=True)


class CaseEvaluator:
    """Evaluates the cases of one calibration, in this process without a
    pool, else on the calibration's pool of `workers` processes. Every case
    of every stage goes through evaluate_all, which simulates each distinct
    case once; a stage called without an evaluator makes its own."""

    def __init__(self, pool=None, workers: int = 1):
        self._pool = pool
        self._workers = workers if pool is not None else 1
        self._memo: dict[str, CaseOutcome] = {}

    def evaluate_all(self, values_list, ctx: EvalContext) -> list[CaseOutcome]:
        """One outcome per case, in input order. Only cases not seen before
        in this calibration are simulated, once each: in one batch without
        a pool, else each worker gets its contiguous share of them as one
        batch. A repeat gets the stored outcome with n_simulations = 0."""
        keys = [_case_key(values, ctx) for values in values_list]
        new = {}
        for key, values in zip(keys, values_list):
            if key not in self._memo:
                new.setdefault(key, values)
        cases = list(new.values())
        if self._pool is None:
            outs = evaluate_batch(cases, ctx) if cases else []
        else:
            size, extra = divmod(len(cases), self._workers)
            ends = [k * size + min(k, extra) for k in range(self._workers + 1)]
            chunks = [cases[a:b] for a, b in zip(ends, ends[1:]) if b > a]
            outs = [
                out for part in self._pool.map(evaluate_batch, chunks, repeat(ctx)) for out in part
            ]
        fresh = dict(zip(new, outs))
        self._memo.update(fresh)
        log.info(
            "stage %d batch: %d cases, %d distinct, %d simulated",
            ctx.stage, len(keys), len(set(keys)), len(fresh),
        )
        return [
            fresh.pop(key) if key in fresh else replace(self._memo[key], n_simulations=0)
            for key in keys
        ]


def usable_field_mops(mops: MopVector) -> MopVector:
    """Drop missing and zero-valued field MoPs (the relative-error fit is
    undefined for both), with a warning naming each one."""
    kept = []
    for entry in mops:
        if entry.missing:
            warnings.warn(f"field MoP {entry.name} has no observations; dropped from the fit")
        elif entry.value == 0.0:
            warnings.warn(f"field MoP {entry.name} is zero; dropped from the fit")
        else:
            kept.append(entry)
    if not kept:
        raise ValueError("no usable field MoPs; cannot calibrate")
    return MopVector(kept)


# ---------------------------------------------------------------------------
# stages


@dataclass(frozen=True)
class CaseRecord:
    case_id: int
    values: dict
    accuracy: float
    feasible: bool
    n_simulations: int
    collisions: int
    diagnostic: str

    @classmethod
    def from_outcome(cls, case, out: CaseOutcome) -> CaseRecord:
        return cls(
            case_id=case.case_id,
            values=dict(case.values),
            accuracy=out.accuracy,
            feasible=out.feasible,
            n_simulations=out.n_simulations,
            collisions=out.collisions,
            diagnostic=out.diagnostic,
        )


@dataclass
class Stage1Result:
    space: ParameterSpace
    oa_runs: int
    cases: list
    best_values: dict
    best_accuracy: float
    n_evaluated: int
    n_simulations: int


def run_stage1(
    cfg: CalibrationConfig, field_dataset: FieldDataset, evaluator: CaseEvaluator | None = None
) -> Stage1Result:
    """Evaluate the inflow design in design order, stopping at the first case
    that reaches the accuracy threshold.

    Cases go out in batches that double in size, from one case per worker:
    each worker simulates its share of a batch together, which costs less
    per case the larger the share, while a stop wastes at most the rest of
    its batch, no more than the cases before the batch plus workers - 1.
    Records and simulation counts stop at the stopping case, so the result
    is the same for any worker count; the batch-mates after it are still
    simulated but not recorded.
    """
    field_mops = usable_field_mops(
        compute_traffic_mops(field_dataset, per_road=cfg.stage1.per_road_density)
    )
    initial = {
        eid: cfg.scenario.entrance_inputs[eid] for eid in sorted(cfg.scenario.entrance_inputs)
    }
    space = build_parameter_space(initial, cfg.stage1.delta)
    oa = build_orthogonal_array(cfg.stage1.levels, len(space))
    cases = map_levels_to_values(oa, space)
    ctx = EvalContext(
        scenario=cfg.scenario,
        stage=1,
        field_mops=field_mops,
        master_seed=cfg.master_seed,
        replications=cfg.replications,
        extraction=cfg.extraction,
        per_road=cfg.stage1.per_road_density,
    )
    if evaluator is None:
        evaluator = CaseEvaluator()

    def outcomes():
        start, size = 0, max(1, cfg.workers)
        while start < len(cases):
            chunk = cases[start : start + size]
            yield from zip(chunk, evaluator.evaluate_all([c.values for c in chunk], ctx))
            start += size
            size *= 2

    records: list[CaseRecord] = []
    best_values: dict | None = None
    best_acc = float("-inf")
    for case, out in outcomes():
        records.append(CaseRecord.from_outcome(case, out))
        if out.accuracy > best_acc:
            best_acc = out.accuracy
            best_values = dict(case.values)
        if out.accuracy >= cfg.stage1.accuracy_threshold:
            break
    if best_values is None or not np.isfinite(best_acc):
        raise RuntimeError("stage 1 failed: no feasible case")
    return Stage1Result(
        space=space,
        oa_runs=oa.runs,
        cases=records,
        best_values=best_values,
        best_accuracy=best_acc,
        n_evaluated=len(records),
        n_simulations=sum(r.n_simulations for r in records),
    )


@dataclass
class Stage2Result:
    space: ParameterSpace
    oa_runs: int
    phase1_cases: list
    ranking: tuple
    ranges: dict
    critical_set: tuple
    phase1_best_values: dict
    frozen_values: dict
    saga: SagaResult
    best_values: dict
    best_accuracy: float
    n_simulations_phase1: int
    n_simulations_phase2: int
    field_mops: MopVector
    field_events: object  # the field data's extracted events


def _candidate_space(cfg: CalibrationConfig) -> ParameterSpace:
    specs = []
    for cand in cfg.stage2.candidates:
        x0 = get_parameter(cfg.scenario, cand.id)
        if cand.lower is None or cand.upper is None:
            base = build_parameter_space({cand.id: x0}, cfg.stage2.delta)
            spec = base.spec(cand.id)
            lo = cand.lower if cand.lower is not None else spec.lower
            hi = cand.upper if cand.upper is not None else spec.upper
        else:
            lo, hi = cand.lower, cand.upper
        specs.append(ParameterSpec(id=cand.id, lower=lo, upper=hi, initial=x0))
    return ParameterSpace(specs)


def run_stage2(
    cfg: CalibrationConfig,
    field_dataset: FieldDataset,
    stage1: Stage1Result,
    evaluator: CaseEvaluator | None = None,
) -> Stage2Result:
    field_events = extract_events(field_dataset, **cfg.extraction.kwargs())
    field_mops = usable_field_mops(compute_vehicle_mops(field_events))
    scenario = apply_parameters(cfg.scenario, stage1.best_values)

    space = _candidate_space(cfg)
    oa = build_orthogonal_array(cfg.stage2.levels, len(space))
    cases = map_levels_to_values(oa, space)
    ctx = EvalContext(
        scenario=scenario,
        stage=2,
        field_mops=field_mops,
        master_seed=cfg.master_seed,
        replications=cfg.replications,
        extraction=cfg.extraction,
    )
    if evaluator is None:
        evaluator = CaseEvaluator()
    # phase I: full design, no early stop; range analysis needs every case
    outcomes = evaluator.evaluate_all([c.values for c in cases], ctx)
    records = [CaseRecord.from_outcome(case, out) for case, out in zip(cases, outcomes)]
    n_sims_p1 = sum(o.n_simulations for o in outcomes)
    accuracies = [o.accuracy if np.isfinite(o.accuracy) else -1e9 for o in outcomes]
    ra = range_analysis(oa, accuracies, cfg.stage2.k_critical, parameter_ids=space.ids)
    grids = {pid: level_values(*space.bounds(pid), oa.levels) for pid in space.ids}
    phase1_best = {pid: grids[pid][ra.best_levels[pid]] for pid in space.ids}

    critical = tuple(ra.critical_set)
    frozen = {pid: phase1_best[pid] for pid in space.ids if pid not in critical}
    space_ii = ParameterSpace(
        [
            ParameterSpec(
                id=pid,
                lower=space.spec(pid).lower,
                upper=space.spec(pid).upper,
                initial=phase1_best[pid],
            )
            for pid in critical
        ]
    )
    scenario_ii = apply_parameters(scenario, frozen)
    ctx_ii = replace(ctx, scenario=scenario_ii)

    phase2_sims: list[int] = []

    def evaluate(generation):
        outs = evaluator.evaluate_all(generation, ctx_ii)
        phase2_sims.extend(o.n_simulations for o in outs)
        return [o.accuracy for o in outs]

    seed_individuals = [
        {pid: phase1_best[pid] for pid in critical},
        {pid: space.spec(pid).initial for pid in critical},
    ]
    saga_result = run_saga(
        evaluate, space_ii, cfg.stage2.saga, _derive_saga_seed(cfg.master_seed),
        seed_individuals=seed_individuals,
    )
    return Stage2Result(
        space=space,
        oa_runs=oa.runs,
        phase1_cases=records,
        ranking=tuple(ra.ranking),
        ranges=dict(ra.ranges),
        critical_set=critical,
        phase1_best_values=phase1_best,
        frozen_values=frozen,
        saga=saga_result,
        best_values=dict(saga_result.best),
        best_accuracy=saga_result.best_accuracy,
        n_simulations_phase1=n_sims_p1,
        n_simulations_phase2=sum(phase2_sims),
        field_mops=field_mops,
        field_events=field_events,
    )


# ---------------------------------------------------------------------------
# full pipeline


@dataclass
class CalibrationReport:
    master_seed: int
    stage1: Stage1Result
    stage2: Stage2Result
    calibrated_values: dict
    final_moes: MoeReport
    total_simulations: int
    optimization_simulations: int
    cases_scored: int
    simulation_budget: int
    diagnostics: dict
    timings: dict

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "stage1": {
                "oa_runs": self.stage1.oa_runs,
                "n_evaluated": self.stage1.n_evaluated,
                "n_simulations": self.stage1.n_simulations,
                "best_values": self.stage1.best_values,
                "best_accuracy": self.stage1.best_accuracy,
            },
            "stage2": {
                "oa_runs": self.stage2.oa_runs,
                "n_simulations_phase1": self.stage2.n_simulations_phase1,
                "n_simulations_phase2": self.stage2.n_simulations_phase2,
                "ranking": list(self.stage2.ranking),
                "ranges": self.stage2.ranges,
                "critical_set": list(self.stage2.critical_set),
                "phase1_best_values": self.stage2.phase1_best_values,
                "frozen_values": self.stage2.frozen_values,
                "best_values": self.stage2.best_values,
                "best_accuracy": self.stage2.best_accuracy,
                "saga_generations": len(self.stage2.saga.history),
                "saga_evaluations": self.stage2.saga.n_evaluations,
            },
            "calibrated_values": self.calibrated_values,
            "final_moes": self.final_moes.to_dict(),
            "total_simulations": self.total_simulations,
            "optimization_simulations": self.optimization_simulations,
            "cases_scored": self.cases_scored,
            "simulation_budget": self.simulation_budget,
            "diagnostics": self.diagnostics,
        }


def load_field_dataset(cfg: CalibrationConfig) -> FieldDataset:
    if cfg.field_data is None:
        raise ValueError("calibration config has no field data path")
    dataset = parse_field_data(
        cfg.field_data, detection_range=cfg.scenario.detection_range
    )
    return preprocess(
        dataset,
        smoothing_window_s=cfg.preprocess.smoothing_window_s,
        max_speed_jump=cfg.preprocess.max_speed_jump,
    )


def calibrate(cfg: CalibrationConfig, field_dataset: FieldDataset | None = None) -> CalibrationReport:
    """Run the whole pipeline: field processing, stage 1, stage 2, final
    evaluation, and artifact persistence when an output directory is set.

    Both stages share one case evaluator, so a case simulated in either is
    not simulated again. With workers > 1 it holds one process pool, shut
    down (its workers reaped) before the final evaluation."""
    timings: dict[str, float] = {}
    t0 = _time.perf_counter()
    if field_dataset is None:
        field_dataset = load_field_dataset(cfg)
    timings["field_processing"] = _time.perf_counter() - t0

    with ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else nullcontext() as pool:
        t1 = _time.perf_counter()
        evaluator = CaseEvaluator(pool, cfg.workers)
        stage1 = run_stage1(cfg, field_dataset, evaluator)
        timings["stage1"] = _time.perf_counter() - t1

        t2 = _time.perf_counter()
        stage2 = run_stage2(cfg, field_dataset, stage1, evaluator)
        timings["stage2"] = _time.perf_counter() - t2

    t3 = _time.perf_counter()
    calibrated = dict(stage1.best_values)
    calibrated.update(stage2.frozen_values)
    calibrated.update(stage2.best_values)
    final_scenario = apply_parameters(cfg.scenario, calibrated)
    final_scenario = replace(final_scenario, seed=derive_scenario_seed(cfg.master_seed, 0))
    detector = VirtualDetector(final_scenario)
    final_log = run_scenario(final_scenario, detector)
    sim_dataset = virtual_detector_sample(detector)
    sim_events = extract_events(sim_dataset, **cfg.extraction.kwargs())
    final_moes = evaluate_moes(
        field_dataset, stage2.field_events, sim_dataset, sim_events, cfg.cutin_error
    )
    timings["final_evaluation"] = _time.perf_counter() - t3

    opt_sims = stage1.n_simulations + stage2.n_simulations_phase1 + stage2.n_simulations_phase2
    saga_cfg = cfg.stage2.saga
    budget = (
        stage1.oa_runs + stage2.oa_runs
        + saga_cfg.population_size * (saga_cfg.max_generations + 1)
    ) * cfg.replications
    report = CalibrationReport(
        master_seed=cfg.master_seed,
        stage1=stage1,
        stage2=stage2,
        calibrated_values=calibrated,
        final_moes=final_moes,
        total_simulations=opt_sims + 1,
        optimization_simulations=opt_sims,
        cases_scored=(
            stage1.n_evaluated + len(stage2.phase1_cases) + stage2.saga.n_evaluations
        ),
        simulation_budget=budget,
        diagnostics={
            "final_run_collisions": final_log.collision_count,
            "final_run_feasible": final_log.feasible,
            "within_simulation_budget": opt_sims <= budget,
        },
        timings=timings,
    )
    if opt_sims > budget:
        log.warning("simulation count %d exceeded budget %d", opt_sims, budget)
    if cfg.output_dir is not None:
        write_artifacts(cfg, report)
    return report


# ---------------------------------------------------------------------------
# persistence


def _to_plain(obj):
    """A config value as JSON-ready data, built field by field."""
    if isinstance(obj, ScenarioConfig):
        return scenario_to_dict(obj)
    if isinstance(obj, MopVector):
        return [_to_plain(entry) for entry in obj]
    if is_dataclass(obj):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_plain(item) for item in obj]
    return obj


def _from_plain(hint, value):
    """Inverse of _to_plain for a value annotated with hint. A key naming no
    field is rejected; a missing key takes the field's default."""
    if hint is ScenarioConfig:
        return scenario_from_dict(value)
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_from_plain(item, v) for v in value)
    if not is_dataclass(hint):
        return value
    if not isinstance(value, dict):
        raise ValueError(f"{hint.__name__} must be given as an object, not {value!r}")
    hints = typing.get_type_hints(hint)
    unknown = sorted(set(value) - {f.name for f in fields(hint)})
    if unknown:
        raise ValueError(f"{hint.__name__} has no field(s) {', '.join(map(repr, unknown))}")
    return hint(**{name: _from_plain(hints[name], v) for name, v in value.items()})


def config_to_dict(cfg: CalibrationConfig) -> dict:
    """Config snapshot; output_dir is deliberately left out so two runs into
    different directories snapshot identically."""
    d = _to_plain(cfg)
    del d["output_dir"]
    return d


def config_from_dict(d: dict) -> CalibrationConfig:
    return _from_plain(CalibrationConfig, d)


def load_calibration_config(path) -> CalibrationConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


def _cases_csv(records, target) -> None:
    import csv as _csv

    with open(target, "w", newline="") as f:
        w = _csv.writer(f, lineterminator="\n")
        if not records:
            w.writerow(["case_id"])
            return
        param_ids = sorted(records[0].values)
        w.writerow(
            ["case_id"] + param_ids
            + ["accuracy", "feasible", "n_simulations", "collisions", "diagnostic"]
        )
        for r in records:
            w.writerow(
                [r.case_id]
                + [repr(float(r.values[p])) for p in param_ids]
                + [repr(float(r.accuracy)), int(r.feasible), r.n_simulations,
                   r.collisions, r.diagnostic]
            )


def write_artifacts(cfg: CalibrationConfig, report: CalibrationReport) -> Path:
    """Persist the run: config snapshot, case logs, optimizer history, the
    report, and wall-clock timings (kept separate so reports stay
    byte-reproducible)."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
    )
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    (out / "timings.json").write_text(
        json.dumps(report.timings, indent=2, sort_keys=True) + "\n"
    )
    _cases_csv(report.stage1.cases, out / "stage1_cases.csv")
    _cases_csv(report.stage2.phase1_cases, out / "stage2_phase1_cases.csv")
    history = [
        {
            "generation": rec.index,
            "f_max_cur": rec.f_max_cur,
            "f_avg_cur": rec.f_avg_cur,
            "best_accuracy_so_far": rec.best_accuracy_so_far,
            "population": list(rec.population),
            "accuracies": list(rec.accuracies),
        }
        for rec in report.stage2.saga.history
    ]
    (out / "saga_history.json").write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n"
    )
    return out


# ---------------------------------------------------------------------------
# synthetic data helper


def generate_field_data(
    scenario: ScenarioConfig, master_seed: int, replication: int = 0
) -> FieldDataset:
    """Simulate a scenario under the pipeline's seed policy and sample it
    through the virtual detector; the result parses and scores like real
    field data."""
    cfg = replace(scenario, seed=derive_scenario_seed(master_seed, replication))
    detector = VirtualDetector(cfg)
    run_scenario(cfg, detector)
    return virtual_detector_sample(detector).with_meta(source="field")
