import json
import logging
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcalib import pipeline
from avcalib.demo import recovery_scenario
from avcalib.detection import DetectionRecord, SurroundingObs
from avcalib.fielddata import export_detection_csv
from avcalib.metrics import (
    AVG_CF_HEADWAY_BG,
    AVG_LC_DISTANCE_SUBJECT,
    MopEntry,
    MopVector,
    compute_traffic_mops,
    compute_vehicle_mops,
    evaluate_moes,
)
from avcalib.fielddata import extract_events
from avcalib.params import build_parameter_space
from avcalib.pipeline import (
    CalibrationConfig,
    CandidateParam,
    CaseEvaluator,
    CaseOutcome,
    EvalContext,
    ExtractionConfig,
    PreprocessConfig,
    Stage1Config,
    Stage2Config,
    apply_parameters,
    calibrate,
    config_from_dict,
    config_to_dict,
    derive_scenario_seed,
    evaluate_case,
    generate_field_data,
    get_parameter,
    load_calibration_config,
    run_stage1,
    run_stage2,
    usable_field_mops,
)
from avcalib.roadsim import (
    IdmParams,
    Simulation,
    VirtualDetector,
    engine,
    run_batch,
    run_scenario,
    virtual_detector_sample,
)
from avcalib.roadsim.network import KMH
from avcalib.saga import SagaConfig


def micro_calibration(micro_scenario, **overrides):
    defaults = dict(
        scenario=micro_scenario,
        preprocess=PreprocessConfig(smoothing_window_s=0.0, max_speed_jump=float("inf")),
        extraction=ExtractionConfig(cf_max_gap=60.0, cf_min_duration=3.0),
        stage1=Stage1Config(levels=2, delta=0.2, accuracy_threshold=1.0, per_road_density=False),
        stage2=Stage2Config(
            # the third candidate sits on the interaction-aliased column of
            # the saturated 4-run design; a lane-change parameter is inert
            # on this single-lane corridor, so the live columns stay clean
            candidates=(
                CandidateParam(id="background.cf.T"),
                CandidateParam(id="background.cf.s0"),
                CandidateParam(id="background.lc.min_headway_front"),
            ),
            levels=2,
            k_critical=2,
            saga=SagaConfig(population_size=4, max_generations=2, accuracy_threshold=0.9),
        ),
        replications=1,
        workers=1,
        output_dir=None,
        master_seed=0,
    )
    defaults.update(overrides)
    return CalibrationConfig(**defaults)


# ---------------------------------------------------------------------------
# parameter space and addressing


def test_bounds_from_initial_values():
    space = build_parameter_space({"q": 800.0}, 0.2)
    assert space.bounds("q") == (640.0, 960.0)
    space = build_parameter_space({"q": 1200.0}, 0.2)
    assert space.bounds("q") == (960.0, 1440.0)


def test_bounds_sign_ordered_for_negative_initial():
    space = build_parameter_space({"decel": -4.0}, 0.2)
    assert space.bounds("decel") == (-4.8, -3.2)


def test_zero_initial_value_rejected():
    with pytest.raises(ValueError, match="explicit bounds"):
        build_parameter_space({"x": 0.0}, 0.2)
    with pytest.raises(ValueError):
        build_parameter_space({"x": 1.0}, 1.2)


def test_get_and_apply_parameters(micro_scenario):
    assert get_parameter(micro_scenario, "E1") == 700.0
    assert get_parameter(micro_scenario, "background.cf.T") == IdmParams().T
    out = apply_parameters(micro_scenario, {"E1": 500.0, "background.cf.T": 1.6,
                                            "background.lc.min_headway_front": 3.0})
    assert out.entrance_inputs["E1"] == 500.0
    assert out.behavior["background"].car_following.T == 1.6
    assert out.behavior["background"].lane_change.min_headway_front == 3.0
    # original untouched
    assert micro_scenario.entrance_inputs["E1"] == 700.0
    assert micro_scenario.behavior["background"].car_following.T == IdmParams().T


# the car-following model's interface members are not parameters
MODEL_INTERFACE_PATHS = ["background.cf.accel", "background.cf.desired_speed",
                         "background.cf.spawn_gap"]


def test_ill_formed_path_rejected(micro_scenario):
    with pytest.raises(ValueError):
        apply_parameters(micro_scenario, {"background.cf": 1.0})
    with pytest.raises(ValueError):
        apply_parameters(micro_scenario, {"background.xx.T": 1.0})
    with pytest.raises(ValueError):
        get_parameter(micro_scenario, "truck.cf.T")
    for path in MODEL_INTERFACE_PATHS:
        with pytest.raises(ValueError):
            get_parameter(micro_scenario, path)


def test_inapplicable_parameter_warns_and_is_ignored(micro_scenario):
    for path in ["background.cf.cc0"] + MODEL_INTERFACE_PATHS:
        with pytest.warns(UserWarning, match=path.rsplit(".", 1)[1]):
            out = apply_parameters(micro_scenario, {path: 2.0})
        assert out.behavior["background"].car_following == micro_scenario.behavior[
            "background"
        ].car_following


def test_seed_derivation_is_stable_and_distinct():
    a = derive_scenario_seed(7, 0)
    assert a == derive_scenario_seed(7, 0)
    assert a != derive_scenario_seed(7, 1)
    assert a != derive_scenario_seed(8, 0)


# ---------------------------------------------------------------------------
# case evaluation


def _field_and_ctx(scenario, stage, master=0, extraction=None):
    extraction = extraction or ExtractionConfig(cf_max_gap=60.0, cf_min_duration=3.0)
    field = generate_field_data(scenario, master)
    if stage == 1:
        mops = usable_field_mops(compute_traffic_mops(field))
    else:
        mops = usable_field_mops(
            compute_vehicle_mops(extract_events(field, **extraction.kwargs()))
        )
    ctx = EvalContext(
        scenario=scenario, stage=stage, field_mops=mops, master_seed=master,
        extraction=extraction,
    )
    return field, ctx


def test_evaluate_case_deterministic(micro_scenario):
    _, ctx = _field_and_ctx(micro_scenario, stage=1)
    a = evaluate_case({"E1": 600.0}, ctx)
    b = evaluate_case({"E1": 600.0}, ctx)
    assert a.accuracy == b.accuracy
    assert a.n_simulations == 1


def _detected(scenario, sink=None):
    """The detection dataset of one run of scenario; sink, if given, sees
    every step before the detector does."""
    detector = VirtualDetector([scenario])

    def both(sim):
        sink(sim)
        return detector(sim)

    run_scenario(scenario, detector if sink is None else both)
    return virtual_detector_sample(detector, 0)


def test_replications_average_runs_on_derived_seeds(micro_scenario):
    _, ctx = _field_and_ctx(micro_scenario, stage=1, master=4)
    out = evaluate_case({"E1": 600.0}, replace(ctx, replications=2))
    assert out.n_simulations == 2
    scenario = apply_parameters(micro_scenario, {"E1": 600.0})
    runs = [
        compute_traffic_mops(_detected(replace(scenario, seed=derive_scenario_seed(4, rep))))
        for rep in (0, 1)
    ]
    assert runs[0].to_dict() != runs[1].to_dict()
    assert out.mops.to_dict() == MopVector.mean_of(runs).to_dict()


def test_subject_drives_at_its_own_desired_speed():
    # the subject's model v0 is its one desired speed: the subject enters
    # at it, and a lower one slows the subject down
    scenario = replace(recovery_scenario(), total_time=160.0, warmup_time=100.0)

    def run(s):
        entry = []

        def note_entry(sim):
            subjects = (sim.kind == engine.KIND_SUBJECT).nonzero()[0]
            if len(subjects) and not entry:
                entry.append(float(sim.speed[subjects[0]]))

        records = _detected(s, note_entry).records
        return entry[0], records, sum(r.speed_kmh for r in records) / len(records)

    speed, records, mean_kmh = run(scenario)
    assert speed == get_parameter(scenario, "subject.cf.v0") == 40.0 * KMH
    slow = apply_parameters(scenario, {"subject.cf.v0": 8.0})
    slow_speed, slow_records, slow_mean_kmh = run(slow)
    assert slow_speed == 8.0
    assert slow_records != records
    assert slow_mean_kmh < mean_kmh - 5.0


def test_self_calibration_is_exact(micro_scenario):
    # field data generated under the same seed policy: the true parameters
    # reproduce it bit for bit, so accuracy is exactly 1
    _, ctx1 = _field_and_ctx(micro_scenario, stage=1)
    assert evaluate_case({}, ctx1).accuracy == pytest.approx(1.0, abs=1e-12)
    _, ctx2 = _field_and_ctx(micro_scenario, stage=2)
    assert evaluate_case({}, ctx2).accuracy == pytest.approx(1.0, abs=1e-12)


def test_unused_parameter_does_not_change_accuracy(micro_scenario):
    _, ctx = _field_and_ctx(micro_scenario, stage=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = evaluate_case({"E1": 620.0}, ctx)
        b = evaluate_case({"E1": 620.0, "background.cf.cc0": 1.0}, ctx)
    assert a.accuracy == b.accuracy


def test_subject_leaving_the_route_scores_minus_inf(micro_scenario, caplog, monkeypatch):
    # at 60 km/h the subject clears the 900 m link before the 70 s live
    # horizon ends, so the detector has no subject to sample
    _, ctx = _field_and_ctx(micro_scenario, stage=1)
    ctx = replace(ctx, scenario=apply_parameters(micro_scenario, {"subject.cf.v0": 60.0 * KMH}))
    runs = []

    def spied_run(configs, sink=None):
        sim = Simulation(configs)
        try:
            return sim.run(sink)
        finally:
            runs.extend(zip(configs, sim.logs))

    monkeypatch.setattr(pipeline, "run_batch", spied_run)
    with caplog.at_level(logging.WARNING, logger="avcalib.pipeline"):
        out = evaluate_case({}, ctx)
    assert out.accuracy == -math.inf
    assert not out.feasible
    assert out.n_simulations == 1
    assert out.diagnostic.startswith("MissingSubjectError: ")
    assert "scored -inf" in caplog.text
    # the run stopped at the first live step without the subject, the one
    # the diagnostic names, and stored no frame
    ((cfg, stopped),) = runs
    full = run_scenario(cfg)
    k, first_missing = next(
        (k, f.time) for k, f in enumerate(full.frames)
        if not full.is_warmup(f.time) and engine.KIND_SUBJECT not in f.kinds
    )
    assert f" at t={first_missing};" in out.diagnostic
    assert stopped.steps == k + 1 < full.steps
    assert stopped.frames == []


def test_a_failing_case_scores_minus_inf_and_spares_its_batch_mates(
    micro_scenario, monkeypatch, caplog
):
    # extract_events raises for the middle case of a three-case batch: that
    # case scores -inf with the exception as its diagnostic, the other two
    # score exactly as they do alone
    _, ctx = _field_and_ctx(micro_scenario, stage=2)
    cases = [{"background.cf.T": t} for t in (1.1, 1.3, 1.5)]
    alone = [evaluate_case(values, ctx) for values in cases]
    calls = []
    extract = pipeline.extract_events

    def failing_second(dataset, **kwargs):
        calls.append(dataset)
        if len(calls) == 2:
            raise RuntimeError("no events here")
        return extract(dataset, **kwargs)

    monkeypatch.setattr(pipeline, "extract_events", failing_second)
    with caplog.at_level(logging.WARNING, logger="avcalib.pipeline"):
        outcomes = pipeline.evaluate_batch(cases, ctx)
    assert len(calls) == 3
    for i in (0, 2):
        assert replace(outcomes[i], mops=None) == replace(alone[i], mops=None)
        assert outcomes[i].mops.to_dict() == alone[i].mops.to_dict()
    failed = outcomes[1]
    assert failed.accuracy == -math.inf and failed.mops is None
    assert failed.diagnostic == "RuntimeError: no events here"
    assert failed.n_simulations == 1 and failed.collisions == alone[1].collisions
    assert "scored -inf: RuntimeError: no events here" in caplog.text
    assert "failing_second" in caplog.text  # the warning carries the traceback


# every vehicle stands: entering at the entry speed, it brakes to a stop and
# then creeps at a_max * dt, below the gridlock speed
CRAWL = {f"{cls}.cf.{name}": 0.05 for cls in ("background", "subject") for name in ("v0", "a_max")}


def test_a_gridlocked_case_scores_minus_inf_and_spares_its_batch_mates(
    micro_scenario, monkeypatch
):
    # the crawling case stands still for GRIDLOCK_TIME, shortened here to
    # fit the 90 s horizon, and drops out; its batch-mates score as alone
    monkeypatch.setattr(engine, "GRIDLOCK_TIME", 10.0)
    _, ctx = _field_and_ctx(micro_scenario, stage=1)
    cases = [{"E1": 600.0}, CRAWL, {"E1": 800.0}]
    outcomes = pipeline.evaluate_batch(cases, ctx)
    for i in (0, 2):
        alone = evaluate_case(cases[i], ctx)
        assert replace(outcomes[i], mops=None) == replace(alone, mops=None)
        assert outcomes[i].mops.to_dict() == alone.mops.to_dict()
    stuck = outcomes[1]
    assert stuck.accuracy == -math.inf and not stuck.feasible
    assert stuck.mops is None and stuck.n_simulations == 1
    assert stuck.diagnostic.startswith("gridlock at t=")
    assert 10.0 < float(stuck.diagnostic.removeprefix("gridlock at t=")) < 90.0


def test_a_case_whose_accuracy_is_undefined_keeps_its_mops(micro_scenario):
    # the one-lane corridor has no lane change, so the only field MoP has
    # no simulated counterpart and the accuracy is undefined
    _, ctx = _field_and_ctx(micro_scenario, stage=2)
    ctx = replace(ctx, field_mops=MopVector([MopEntry(AVG_LC_DISTANCE_SUBJECT, 100.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = evaluate_case({}, ctx)
    assert out.accuracy == -math.inf and out.feasible
    assert out.diagnostic == "every shared MoP was missing on one side"
    assert out.n_simulations == 1
    assert out.mops.value(AVG_LC_DISTANCE_SUBJECT) is None
    assert out.mops.value(AVG_CF_HEADWAY_BG) is not None
    assert out.first_run is not None


def test_cases_that_fail_their_first_replication_are_not_run_again(
    micro_scenario, monkeypatch
):
    # one case loses its subject off the route, the other gridlocks: both
    # fail at replication 0, so replication 1 runs no batch at all
    monkeypatch.setattr(engine, "GRIDLOCK_TIME", 10.0)
    _, ctx = _field_and_ctx(micro_scenario, stage=1)
    ctx = replace(ctx, replications=2)
    batches = []

    def counted(configs, sink=None):
        batches.append(len(configs))
        return run_batch(configs, sink)

    monkeypatch.setattr(pipeline, "run_batch", counted)
    outcomes = pipeline.evaluate_batch([{"subject.cf.v0": 60.0 * KMH}, CRAWL], ctx)
    assert batches == [2]
    assert [o.n_simulations for o in outcomes] == [1, 1]
    assert outcomes[0].diagnostic.startswith("MissingSubjectError: ")
    assert outcomes[1].diagnostic.startswith("gridlock at t=")


def test_field_events_are_extracted_once_per_calibration(micro_scenario, monkeypatch):
    field = generate_field_data(
        apply_parameters(micro_scenario, {"background.cf.T": IdmParams().T * 1.2}), 0
    )
    seen = []
    extract = pipeline.extract_events

    def noted(dataset, **kwargs):
        seen.append(dataset is field)
        return extract(dataset, **kwargs)

    monkeypatch.setattr(pipeline, "extract_events", noted)
    report = calibrate(micro_calibration(micro_scenario), field_dataset=field)
    assert seen.count(True) == 1
    assert report.stage2.field_side is not None


def test_calibration_path_builds_no_frame(micro_scenario, monkeypatch):
    _, ctx = _field_and_ctx(micro_scenario, stage=2)

    def no_frame(*args, **kwargs):
        raise AssertionError("a Frame was built")

    monkeypatch.setattr(engine, "Frame", no_frame)
    assert evaluate_case({}, ctx).accuracy == pytest.approx(1.0, abs=1e-12)
    field = generate_field_data(micro_scenario, 0)
    assert len(field.records) == round(
        (micro_scenario.total_time - micro_scenario.warmup_time) / micro_scenario.time_step
    )


def test_calibration_builds_no_detection_record(micro_scenario, monkeypatch, tmp_path):
    # parsing, preprocessing, the detector, extraction and scoring all work
    # on the datasets' columns; only the records view builds these objects
    field_csv = tmp_path / "field.csv"
    export_detection_csv(generate_field_data(micro_scenario, 0), field_csv)

    def built(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    for cls in (DetectionRecord, SurroundingObs):
        monkeypatch.setattr(cls, "__init__", built)
    cfg = micro_calibration(
        micro_scenario, field_data=str(field_csv),
        preprocess=PreprocessConfig(smoothing_window_s=0.5, max_speed_jump=15.0),
        stage1=Stage1Config(levels=2, delta=0.2, accuracy_threshold=1.0, per_road_density=True),
    )
    report = calibrate(cfg)
    assert report.stage2.saga.history
    with pytest.raises(AssertionError, match="was built"):  # the guard holds
        generate_field_data(micro_scenario, 0).records


# ---------------------------------------------------------------------------
# stages


def test_stage1_evaluates_at_most_the_design_and_recovers(micro_scenario):
    truth = {"E1": 700.0}  # field generated at the initial inputs
    field = generate_field_data(micro_scenario, 0)
    cfg = micro_calibration(micro_scenario)
    result = run_stage1(cfg, field)
    assert result.oa_runs == 4  # 2 levels, 1 factor -> L4 truncated to 1 column
    assert result.n_evaluated <= result.oa_runs
    # the truncated design repeats rows; each distinct case is simulated once
    distinct = {tuple(sorted(c.values.items())) for c in result.cases}
    assert result.n_simulations == len(distinct) < result.n_evaluated
    # truth sits mid-grid; the best case must be within one level step
    lo, hi = 700.0 * 0.8, 700.0 * 1.2
    level_step = hi - lo  # 2 levels
    assert abs(result.best_values["E1"] - truth["E1"]) <= level_step + 1e-9


def test_stage1_early_stop_after_first_acceptable_case(micro_scenario):
    field = generate_field_data(micro_scenario, 0)
    cfg = micro_calibration(
        micro_scenario, stage1=Stage1Config(levels=2, delta=0.2, accuracy_threshold=-10.0)
    )
    result = run_stage1(cfg, field)
    assert result.n_evaluated == 1


def _spy_stage1(micro_scenario, monkeypatch):
    """run_stage1 on a 3-level design at a given threshold, and the size of
    every evaluate_all call it made."""
    sizes = []
    evaluate_all = CaseEvaluator.evaluate_all

    def spied(self, values_list, ctx):
        sizes.append(len(values_list))
        return evaluate_all(self, values_list, ctx)

    monkeypatch.setattr(CaseEvaluator, "evaluate_all", spied)

    def stage1(threshold, field):
        cfg = micro_calibration(
            micro_scenario,
            stage1=Stage1Config(levels=3, delta=0.2, accuracy_threshold=threshold),
        )
        sizes.clear()
        return run_stage1(cfg, field), list(sizes)

    return stage1


def _doubling(runs):
    expected, left = [], runs
    while left > 0:
        expected.append(min(2 ** len(expected), left))
        left -= expected[-1]
    return expected


def test_stage1_batches_double_from_one_case_per_worker(micro_scenario, monkeypatch):
    # below a threshold of 1, a stop at the first case sends out that case
    # alone, and the whole design goes out in batches of 1, 2, 4, ... cases;
    # at 1 or more, which only an exact match reaches, it goes out at once
    stage1 = _spy_stage1(micro_scenario, monkeypatch)
    field = generate_field_data(micro_scenario, 0)
    assert stage1(-10.0, field)[1] == [1]
    result, sizes = stage1(2.0, field)  # no case can stop stage 1
    assert result.oa_runs > 3 and sizes == [result.oa_runs]
    # a field from another seed, which no case matches exactly, and a
    # threshold below 1 that no case reaches
    other = generate_field_data(micro_scenario, 1)
    best = stage1(2.0, other)[0].best_accuracy
    assert best < 1.0
    result, sizes = stage1((best + 1.0) / 2, other)
    assert result.n_evaluated == result.oa_runs
    assert sizes == _doubling(result.oa_runs)


def test_stage1_in_one_round_records_what_the_doubling_schedule_does(
    micro_scenario, monkeypatch, caplog
):
    # the largest threshold below 1 stops where 1 does, on an exact match,
    # but keeps the doubling schedule; the seed-0 field is matched exactly
    # by the design's middle case, the seed-1 field by no case
    stage1 = _spy_stage1(micro_scenario, monkeypatch)
    below_one = float(np.nextafter(1.0, 0.0))
    for master in (0, 1):
        field = generate_field_data(micro_scenario, master)
        with caplog.at_level(logging.INFO, logger="avcalib.pipeline"):
            caplog.clear()
            one_round, sizes = stage1(1.0, field)
            log_text = caplog.text
        doubled, doubled_sizes = stage1(below_one, field)
        assert sizes == [one_round.oa_runs]
        assert doubled_sizes == _doubling(one_round.oa_runs)[: len(doubled_sizes)]
        assert one_round == doubled
        stopped = one_round.n_evaluated < one_round.oa_runs
        assert stopped == (master == 0)
        # the one round simulates every distinct case; those after the stop
        # are discarded, and the log says how many
        cases = micro_calibration(
            micro_scenario, stage1=Stage1Config(levels=3, delta=0.2, accuracy_threshold=1.0)
        ).stage1_design.cases
        n_distinct = len({tuple(sorted(c.values.items())) for c in cases})
        discarded = n_distinct - one_round.n_simulations
        assert (discarded > 0) == stopped
        assert f"{discarded} simulations after the stopping case discarded" in log_text


def test_stage2_freezes_stage1_inputs_and_selects_critical(micro_scenario):
    field = generate_field_data(
        apply_parameters(micro_scenario, {"background.cf.T": IdmParams().T * 1.2}), 0
    )
    cfg = micro_calibration(micro_scenario)
    s1 = run_stage1(cfg, field)
    s2 = run_stage2(cfg, field, s1)
    assert len(s2.critical_set) == 2
    # a phase-I case scores the same on the stage-1 inflows it was run with
    first = s2.phase1_cases[0]
    ctx = EvalContext(
        scenario=apply_parameters(micro_scenario, s1.best_values), stage=2,
        field_mops=s2.field_mops, master_seed=cfg.master_seed, extraction=cfg.extraction,
    )
    assert evaluate_case(first.values, ctx).accuracy == first.accuracy
    assert "background.cf.T" in s2.critical_set
    frozen_ids = set(s2.frozen_values)
    assert frozen_ids.isdisjoint(s2.critical_set)
    assert frozen_ids | set(s2.critical_set) == {c.id for c in cfg.stage2.candidates}
    assert set(s2.best_values) == set(s2.critical_set)


# ---------------------------------------------------------------------------
# case memo


def _counting(monkeypatch, evaluate=None):
    """Route the evaluator's batches through a call log, one entry per
    case, each case evaluated on its own (by default as a batch of one)."""
    calls = []
    if evaluate is None:
        batch = pipeline.evaluate_batch
        evaluate = lambda values, ctx: batch([values], ctx)[0]  # noqa: E731

    def counted(values_list, ctx):
        calls.extend(dict(values) for values in values_list)
        return [evaluate(values, ctx) for values in values_list]

    monkeypatch.setattr(pipeline, "evaluate_batch", counted)
    return calls


def test_evaluator_simulates_each_distinct_case_once(micro_scenario, monkeypatch):
    _, ctx = _field_and_ctx(micro_scenario, stage=1)
    batch = [{"E1": 600.0}, {"E1": 650.0}, {"E1": 600.0}, {"E1": 650.0}, {"E1": 600.0}]
    direct = {v: evaluate_case({"E1": v}, ctx) for v in (600.0, 650.0)}
    calls = _counting(monkeypatch)
    outcomes = CaseEvaluator().evaluate_all(batch, ctx)
    assert calls == [{"E1": 600.0}, {"E1": 650.0}]
    assert [o.accuracy for o in outcomes] == [direct[v["E1"]].accuracy for v in batch]
    assert [o.n_simulations for o in outcomes] == [1, 1, 0, 0, 0]
    assert outcomes[2] == replace(outcomes[0], n_simulations=0)


def _stub_ctx(scenario, **overrides):
    return EvalContext(scenario=scenario, stage=2, field_mops=MopVector([MopEntry("x", 1.0)]),
                       master_seed=0, **overrides)


def test_evaluator_remembers_across_batches_of_one_run(micro_scenario, monkeypatch):
    calls = _counting(monkeypatch, lambda values, ctx: CaseOutcome(0.5, None, True, 1, 0))
    evaluator = CaseEvaluator()
    ctx = _stub_ctx(micro_scenario)
    evaluator.evaluate_all([{"E1": 600.0}], ctx)
    again = evaluator.evaluate_all([{"E1": 650.0}, {"E1": 600.0}], ctx)
    assert calls == [{"E1": 600.0}, {"E1": 650.0}]
    assert [o.n_simulations for o in again] == [1, 0]
    # a new evaluator, as each calibrate call makes, starts empty
    CaseEvaluator().evaluate_all([{"E1": 600.0}], ctx)
    assert len(calls) == 3


def test_evaluator_key_covers_every_input(micro_scenario, monkeypatch):
    calls = _counting(monkeypatch, lambda values, ctx: CaseOutcome(0.5, None, True, 1, 0))
    ctx = _stub_ctx(micro_scenario)
    variants = {
        "scenario": apply_parameters(ctx.scenario, {"subject.cf.v0": 31.0 * KMH}),
        "stage": 1,
        "field_mops": MopVector([MopEntry("x", 1.5)]),
        "master_seed": 1,
        "replications": 2,
        "extraction": replace(ctx.extraction, cf_max_gap=61.0),
        "per_road": True,
    }
    assert set(variants) == {f.name for f in fields(EvalContext)}
    evaluator = CaseEvaluator()
    values = {"background.cf.T": 1.5}
    evaluator.evaluate_all([values], ctx)
    for name, changed in variants.items():
        n = len(calls)
        evaluator.evaluate_all([values], replace(ctx, **{name: changed}))
        assert len(calls) == n + 1, f"changing {name} reused an outcome"
    n = len(calls)
    evaluator.evaluate_all([{"background.cf.T": 1.6}], ctx)
    assert len(calls) == n + 1
    # IDM has no cc0: the case builds the same scenario and hits
    with pytest.warns(UserWarning, match="cc0"):
        out = evaluator.evaluate_all([{**values, "background.cf.cc0": 2.0}], ctx)
    assert len(calls) == n + 1 and out[0].n_simulations == 0


def _stub_evaluate(values, ctx):
    """Deterministic in the applied scenario, and fast."""
    scenario = apply_parameters(ctx.scenario, values)
    x = scenario.entrance_inputs["E1"] + scenario.behavior["background"].car_following.T
    return CaseOutcome(
        accuracy=1.0 / x, mops=None, feasible=True,
        n_simulations=ctx.replications, collisions=int(x) % 3,
    )


_STUB_SCENARIO = recovery_scenario()
_STUB_T = get_parameter(_STUB_SCENARIO, "background.cf.T")
# E1, T (unset or its default build the same scenario), and a cc0 IDM ignores
_STUB_CASES = st.builds(
    lambda e1, t, cc0: {"E1": e1, **t, **cc0},
    st.sampled_from([200.0, 240.0, 280.0]),
    st.sampled_from([{}, {"background.cf.T": _STUB_T}, {"background.cf.T": 1.7}]),
    st.sampled_from([{}, {"background.cf.cc0": 1.0}]),
)


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(st.lists(_STUB_CASES, max_size=6), max_size=4),
    replications=st.integers(1, 2),
)
def test_evaluator_matches_direct_evaluation(batches, replications):
    ctx = _stub_ctx(_STUB_SCENARIO, replications=replications)
    calls = []

    def counted(values, ctx):
        calls.append(values)
        return _stub_evaluate(values, ctx)

    def counted_batch(values_list, ctx):
        return [counted(values, ctx) for values in values_list]

    evaluator = CaseEvaluator()
    seen = set()
    with warnings.catch_warnings(), mock.patch.object(pipeline, "evaluate_batch", counted_batch):
        warnings.simplefilter("ignore")
        for batch in batches:
            outcomes = evaluator.evaluate_all(batch, ctx)
            assert len(outcomes) == len(batch)
            for values, out in zip(batch, outcomes):
                key = (values["E1"], values.get("background.cf.T", _STUB_T))
                expected = _stub_evaluate(values, ctx)
                assert out == replace(expected, n_simulations=0 if key in seen else replications)
                seen.add(key)
    assert len(calls) == len(seen)


# ---------------------------------------------------------------------------
# full pipeline


@pytest.fixture(scope="module")
def micro_report(tmp_path_factory):
    # module-scoped copy of the micro scenario (the conftest fixture is
    # function scoped), calibrated once against planted-T field data
    from avcalib.roadsim import (
        BehaviorSpec, Entrance, IdmParams, LaneChangeParams, Link, RoadNetwork,
        ScenarioConfig,
    )

    net = RoadNetwork(
        links=(Link(id="A", length=900.0, lane_count=1, speed_limit=60.0),),
        entrances=(Entrance(id="E1", link="A", entry_speed=45.0),),
        subject_route=("A",),
    )
    behavior = {
        "background": BehaviorSpec(IdmParams(v0=15.0), LaneChangeParams()),
        "subject": BehaviorSpec(IdmParams(v0=30.0 * KMH), LaneChangeParams()),
    }
    scenario = ScenarioConfig(
        network=net,
        entrance_inputs={"E1": 700.0},
        behavior=behavior,
        total_time=90.0,
        warmup_time=20.0,
        time_step=0.5,
        detection_range=(-120.0, 120.0),
        speed_variation=0.05,
        seed=0,
    )
    truth = {"background.cf.T": IdmParams().T * 1.2}
    field = generate_field_data(apply_parameters(scenario, truth), 3)
    out = tmp_path_factory.mktemp("run")
    cfg = micro_calibration(scenario, master_seed=3, output_dir=str(out))
    report = calibrate(cfg, field_dataset=field)
    return cfg, report, field


def test_calibrate_produces_consistent_report(micro_report):
    cfg, report, field = micro_report
    assert report.optimization_simulations <= report.simulation_budget
    # the final evaluation reuses SAGA's run of the calibrated case
    assert report.total_simulations == report.optimization_simulations
    # the truncated stage-1 design repeats cases, which are scored but not
    # simulated again
    assert report.cases_scored == (
        report.stage1.n_evaluated + len(report.stage2.phase1_cases)
        + report.stage2.saga.n_evaluations
    )
    assert report.optimization_simulations < report.cases_scored
    written = json.loads((Path(cfg.output_dir) / "report.json").read_text())
    assert written["cases_scored"] == report.cases_scored
    assert report.diagnostics["within_simulation_budget"]
    assert np.isfinite(report.stage2.best_accuracy)
    d = report.to_dict()
    assert set(d["calibrated_values"]) >= {"E1", "background.cf.T"}


def test_total_simulations_counts_simulator_runs(micro_scenario, monkeypatch):
    field = generate_field_data(
        apply_parameters(micro_scenario, {"background.cf.T": IdmParams().T * 1.2}), 0
    )
    calls = []

    def counted_run(cfg, sink=None):
        calls.append(cfg)
        return run_scenario(cfg, sink)

    def counted_batch(configs, sink=None):
        calls.extend(configs)
        return run_batch(configs, sink)

    monkeypatch.setattr(pipeline, "run_scenario", counted_run)
    monkeypatch.setattr(pipeline, "run_batch", counted_batch)
    totals = []
    # the second call simulates every case again: the memo is per calibration
    for _ in range(2):
        calls.clear()
        report = calibrate(micro_calibration(micro_scenario), field_dataset=field)
        assert report.total_simulations == len(calls)
        totals.append(len(calls))
    assert totals[0] == totals[1] > 1


@pytest.mark.parametrize("replications", [1, 2])
def test_final_evaluation_reuses_the_calibrated_case_run(micro_scenario, monkeypatch, replications):
    # the final report's measures and run diagnostics equal those of a
    # fresh solo run of the calibrated scenario at replication 0, and no
    # simulation runs after the optimization
    field = generate_field_data(
        apply_parameters(micro_scenario, {"background.cf.T": IdmParams().T * 1.2}), 0
    )
    calls = []

    def counted_batch(configs, sink=None):
        calls.extend(configs)
        return run_batch(configs, sink)

    monkeypatch.setattr(pipeline, "run_scenario", lambda cfg, sink=None: pytest.fail("solo run"))
    monkeypatch.setattr(pipeline, "run_batch", counted_batch)
    cfg = micro_calibration(micro_scenario, replications=replications)
    report = calibrate(cfg, field_dataset=field)
    assert len(calls) == report.optimization_simulations == report.total_simulations

    scenario = replace(
        apply_parameters(micro_scenario, report.calibrated_values),
        seed=derive_scenario_seed(cfg.master_seed, 0),
    )
    detector = VirtualDetector([scenario])
    log = run_scenario(scenario, detector)
    sim = virtual_detector_sample(detector, 0)
    kwargs = cfg.extraction.kwargs()
    fresh = evaluate_moes(
        field, extract_events(field, **kwargs), sim, extract_events(sim, **kwargs), cfg.cutin_error
    )
    assert report.final_moes == fresh
    assert report.diagnostics["final_run_collisions"] == log.collision_count
    assert report.diagnostics["final_run_feasible"] == log.feasible


def test_reported_best_re_evaluates_to_reported_accuracy(micro_report):
    cfg, report, field = micro_report
    extraction = cfg.extraction
    scenario = apply_parameters(cfg.scenario, report.stage1.best_values)
    scenario = apply_parameters(scenario, report.stage2.frozen_values)
    mops = usable_field_mops(
        compute_vehicle_mops(extract_events(field, **extraction.kwargs()))
    )
    ctx = EvalContext(
        scenario=scenario, stage=2, field_mops=mops, master_seed=cfg.master_seed,
        extraction=extraction,
    )
    again = evaluate_case(report.stage2.best_values, ctx)
    assert again.accuracy == pytest.approx(report.stage2.best_accuracy, abs=1e-12)


def test_artifacts_written_and_config_roundtrip(micro_report, tmp_path):
    cfg, report, _ = micro_report
    out = cfg.output_dir
    import os

    names = set(os.listdir(out))
    assert {
        "config.json", "report.json", "timings.json",
        "stage1_cases.csv", "stage2_phase1_cases.csv", "saga_history.json",
    } <= names
    for name in ("stage1_cases.csv", "stage2_phase1_cases.csv"):
        header = (Path(out) / name).read_text().splitlines()[0].split(",")
        assert header[-5:] == [
            "accuracy", "feasible", "n_simulations", "collisions", "diagnostic",
        ]
    d = config_to_dict(cfg)
    back = config_from_dict(json.loads(json.dumps(d)))
    assert config_to_dict(back) == d
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    assert config_to_dict(load_calibration_config(path)) == d


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_shipped_configs_match_their_builders():
    from avcalib.demo import recovery_calibration_config, recovery_scenario
    from avcalib.roadsim import load_scenario

    shipped = config_to_dict(load_calibration_config(CONFIGS / "recovery_calibration.json"))
    built = config_to_dict(recovery_calibration_config())
    shipped.pop("field_data")
    built.pop("field_data")
    assert shipped == built
    assert load_scenario(CONFIGS / "recovery_scenario.json") == recovery_scenario()


def test_malformed_config_rejected_at_load(tmp_path):
    shipped = json.loads((CONFIGS / "recovery_calibration.json").read_text())
    path = tmp_path / "bad.json"
    saga_with_seed = dict(shipped["stage2"]["saga"], seed=0)
    for block, value, error in (
        ("stage1", dict(shipped["stage1"], batch_size=1), "Stage1Config has no field.*batch_size"),
        ("stage1", 4, "Stage1Config must be given as an object"),
        ("stage2", dict(shipped["stage2"], saga=saga_with_seed), "SagaConfig has no field.*'seed'"),
    ):
        path.write_text(json.dumps(dict(shipped, **{block: value})))
        with pytest.raises(ValueError, match=error):
            load_calibration_config(path)


def test_stage2_requires_sane_k():
    with pytest.raises(ValueError):
        Stage2Config(candidates=(CandidateParam(id="background.cf.T"),), k_critical=2)


_T = CandidateParam(id="background.cf.T")


@pytest.mark.parametrize("field, value", [
    ("workers", 0),
    ("workers", -3),
    ("stage1.levels", 1),
    ("stage2.levels", 1),
    *((f"stage{k}.delta", delta) for k in (1, 2) for delta in (0.0, -0.1, 1.5)),
    ("stage2.k_critical", 0),
    ("stage2.candidates", (_T, CandidateParam(id="background.cf.no_such_term"))),
    ("stage2.candidates", (_T, _T)),
    ("stage2.candidates", (_T, CandidateParam(id="background.cf.s0", lower=2.0, upper=2.0))),
])
def test_a_config_that_cannot_run_is_rejected_when_built(micro_scenario, field, value):
    # each of these used to load, and failed (or ran serially) only once
    # the calibration reached the stage that needs it
    cfg = micro_calibration(micro_scenario)
    block, _, name = field.rpartition(".")
    with pytest.raises(ValueError):
        if block:
            replace(cfg, **{block: replace(getattr(cfg, block), **{name: value})})
        else:
            replace(cfg, **{name: value})


def test_workers_1_and_2_write_identical_artifacts(micro_scenario, tmp_path):
    field = generate_field_data(
        apply_parameters(micro_scenario, {"background.cf.T": IdmParams().T * 1.2}), 0
    )
    # the whole stage-1 design, then a threshold every case meets, so stage 1
    # stops at slot 0 of its first two-case batch
    for threshold, n_stage1 in ((1.0, 4), (-10.0, 1)):
        artifacts = []
        for workers in (1, 2):
            out = tmp_path / f"t{threshold}-w{workers}"
            cfg = micro_calibration(
                micro_scenario, workers=workers, output_dir=str(out),
                stage1=Stage1Config(levels=2, delta=0.2, accuracy_threshold=threshold),
            )
            report = calibrate(cfg, field_dataset=field)
            assert report.stage1.n_evaluated == n_stage1
            artifacts.append({
                name: (out / name).read_bytes()
                for name in ("report.json", "stage1_cases.csv",
                             "stage2_phase1_cases.csv", "saga_history.json")
            })
        for name, data in artifacts[0].items():
            assert artifacts[1][name] == data, f"{name} differs between 1 and 2 workers"
