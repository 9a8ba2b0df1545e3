"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the lines. The
synthetic recovery study (criteria 8-10) drives the bundled corridor
through ten fixed master seeds and is the slow part of the suite.
"""

import time
import warnings

import numpy as np
import pytest
from scipy import stats

from avcalib.demo import (
    RECOVERY_PLANTED,
    recovery_calibration_config,
    recovery_truth_scenario,
    recovery_truth_values,
)
from avcalib.detection import SUBJECT
from avcalib.doe import build_orthogonal_array, map_levels_to_values, range_analysis
from avcalib.fielddata import CarFollowingEpisode, CutInEvent, EventSet, LaneChangeEvent
from avcalib.metrics import (
    CutinErrorParams,
    cutin_error,
    evaluate_moes,
    jaccard_similarity,
)
from avcalib.params import build_parameter_space
from avcalib.pipeline import calibrate, generate_field_data
from avcalib.roadsim import IdmParams, Simulation, car_following_acceleration, run_scenario
from avcalib.saga import adaptive_probability

from conftest import dataset, rec, surr
from test_doe import _brute_force_ra
from test_roadsim_engine import corridor
from test_roadsim_models import idm_equilibrium_gap


def _ok(criterion, detail=""):
    print(f"[PASS] criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_two_level_design_regression():
    t0 = time.perf_counter()
    oa = build_orthogonal_array(2, 3)
    assert oa.matrix.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    space = build_parameter_space({"qA": 800.0, "qB": 1000.0, "qC": 1200.0}, 0.2)
    cases = [tuple(c.values[k] for k in ("qA", "qB", "qC"))
             for c in map_levels_to_values(oa, space)]
    # the third case maps to 1440 by the level formula (the often-misprinted
    # endpoint of the [960, 1440] range)
    assert cases == [
        (640.0, 800.0, 960.0),
        (640.0, 1200.0, 1440.0),
        (960.0, 800.0, 1440.0),
        (960.0, 1200.0, 960.0),
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"4-case inflow design exact, {elapsed * 1000:.0f} ms")


def test_criterion_2_orthogonality_of_supported_arrays():
    t0 = time.perf_counter()
    geometries = [(2, 3), (2, 7), (2, 10), (2, 15), (3, 4), (3, 13),
                  (4, 5), (4, 12), (4, 20), (5, 6)]
    for levels, factors in geometries:
        oa = build_orthogonal_array(levels, factors)
        per_pair = oa.runs // levels**2
        m = oa.matrix.astype(np.int64)
        for i in range(factors):
            for j in range(i + 1, factors):
                counts = np.bincount(m[:, i] * levels + m[:, j], minlength=levels**2)
                assert np.all(counts == per_pair), (levels, factors, i, j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(2, f"pairwise balance exact for {len(geometries)} arrays incl. the two 64-run designs, {elapsed:.2f} s")


def test_criterion_3_adaptive_probability_boundaries():
    crossover = (0.6, 0.9)
    mutation = (0.05, 0.25)
    checks = [
        (0.4, crossover, 0.9), (0.9, crossover, 0.6), (0.7, crossover, 0.75),
        (0.4, mutation, 0.25), (0.9, mutation, 0.05), (0.7, mutation, 0.15),
    ]
    for f_pair, (p_min, p_max), expected in checks:
        got = adaptive_probability(f_pair, 0.9, 0.5, p_min, p_max)
        assert abs(got - expected) <= 1e-12, (f_pair, p_min, p_max, got)
    _ok(3, "crossover 0.9/0.6/0.75 and mutation 0.25/0.05/0.15 within 1e-12")


def test_criterion_4_cutin_error_regression():
    p = CutinErrorParams(delta_lb=0.0, delta_ub=1.0)
    assert cutin_error(10, 10, p) == 0.0
    assert cutin_error(10, 10.5, p) == 0.5
    assert cutin_error(10, 11, p) == 1.0
    assert cutin_error(10, 13, p) == 1.0
    _ok(4, "fuzzy membership {0, 0.5, 1, 1} exact")


def test_criterion_5_range_analysis_brute_force():
    rng = np.random.default_rng(2024)
    for levels, factors in ((3, 4), (4, 5)):
        oa = build_orthogonal_array(levels, factors)
        for _ in range(100):
            acc = rng.uniform(-0.5, 1.0, size=oa.runs)
            res = range_analysis(oa, acc, 3)
            lm, ranges, order, crit, best = _brute_force_ra(oa, acc, 3)
            for j in range(factors):
                pid = f"factor_{j}"
                assert abs(res.ranges[pid] - ranges[j]) <= 1e-12
                for lvl in range(levels):
                    assert abs(res.level_means[(pid, lvl)] - lm[(j, lvl)]) <= 1e-12
                assert res.best_levels[pid] == best[j]
            assert res.ranking == tuple(f"factor_{j}" for j in order)
            assert res.critical_set == tuple(f"factor_{j}" for j in crit)
    _ok(5, "100 random accuracy vectors on the 9-run and 16-run designs, 1e-12")


def test_criterion_6_moe_recomputation():
    def episode(follower, leader, headways):
        return CarFollowingEpisode(follower=follower, leader=leader,
                                   start_time=0.0, end_time=60.0,
                                   headway_series=tuple(headways))

    def lane_change(actor, dist, t=10.0):
        return LaneChangeEvent(actor=actor, start_time=t, end_time=t + 0.1,
                               from_lane=1, to_lane=2, lc_distance=dist)

    field_ds = dataset([
        rec(t * 0.1, speed_ms=15.0,
            surroundings=[surr(1, 1, 40.0, speed_ms=18.0), surr(2, 2, -30.0, speed_ms=21.0)])
        for t in range(50)
    ])
    sim_ds = dataset([
        rec(t * 0.1, speed_ms=14.0, surroundings=[surr(1, 1, 45.0, speed_ms=19.0)])
        for t in range(50)
    ])
    # the unbalanced background-headway pair: vehicle means 1.0 s (100
    # samples) and 3.0 s (2 samples)
    field_ev = EventSet(
        lane_changes=(lane_change(SUBJECT, 60.0), lane_change(SUBJECT, 80.0),
                      lane_change("1", 100.0), lane_change("2", 50.0), lane_change("2", 70.0)),
        cut_ins=(CutInEvent("1", 1.0, 20.0), CutInEvent("2", 20.0, 30.0),
                 CutInEvent("1", 40.0, 25.0)),
        episodes=(episode(SUBJECT, "1", [2.0, 2.2, 1.8]),
                  episode("1", "2", [1.0] * 100), episode("2", "1", [3.0] * 2)),
    )
    sim_ev = EventSet(
        lane_changes=(lane_change(SUBJECT, 90.0),
                      lane_change("1", 110.0), lane_change("2", 40.0)),
        cut_ins=(CutInEvent("1", 5.0, 22.0), CutInEvent("2", 18.0, 28.0),
                 CutInEvent("1", 30.0, 21.0), CutInEvent("2", 44.0, 26.0)),
        episodes=(episode(SUBJECT, "1", [2.4, 2.6]),
                  episode("1", "2", [1.2] * 10), episode("2", "1", [2.6] * 10)),
    )
    report = evaluate_moes(field_ds, field_ev, sim_ds, sim_ev,
                           CutinErrorParams(0.0, 1.0), lane_count=2)

    # independent spreadsheet-style re-derivation
    f_t_bg = (1.0 + 3.0) / 2
    pooled = (1.0 * 100 + 3.0 * 2) / 102
    assert abs(f_t_bg - 2.0) <= 1e-12 and abs(pooled - 1.0392156862745099) <= 1e-12
    s_t_bg = (1.2 + 2.6) / 2
    expected = {
        "e_t_sub": abs(2.0 - 2.5) / 2.0,
        "e_t_bg": abs(f_t_bg - s_t_bg) / f_t_bg,
        "e_d_sub": abs(70.0 - 90.0) / 70.0,
        "e_d_bg": abs(80.0 - 75.0) / 80.0,
        "e_cutin": 1.0,
        "e_v": abs(18.0 - 16.5) / 18.0,
        "e_rho": abs(5.0 - 10.0 / 3.0) / 5.0,
        "e_vol": abs(5.0 * 18.0 - 10.0 / 3.0 * 16.5) / (5.0 * 18.0),
        "e_dynamics": abs(15.0 - 14.0) / 15.0,
    }
    got = report.to_dict()
    for name, value in expected.items():
        assert abs(got[name] - value) <= 1e-9, (name, got[name], value)
    assert abs(got["e_veh"] - sum(expected[k] for k in
                                  ("e_t_sub", "e_t_bg", "e_d_sub", "e_d_bg", "e_cutin"))) <= 1e-9
    _ok(6, "full report equals the hand recomputation; vehicle-mean 2.0 s, not pooled 1.04 s")


def test_criterion_7_simulator_oracles():
    t0 = time.perf_counter()

    # equilibrium spacing from bisection, checked through the model call
    p = IdmParams()
    s_eq = idm_equilibrium_gap(p, 15.0)
    assert abs(car_following_acceleration(p, 15.0, (s_eq, 15.0), 0.1)) < 1e-9

    # five-vehicle platoon converges to the leader speed by 300 s
    cfg = corridor(total=300.0, warmup=1.0, dt=0.1, length=8000.0)
    sim = Simulation([cfg])
    sim.add_vehicle(pos=600.0, speed=15.0, fixed=True)
    for k in range(5):
        sim.add_vehicle(pos=500.0 - 60.0 * k, speed=0.0)
    while sim.step_index < sim.n_steps:
        sim.step()
    final = sim.logs[0].frames[-1]
    platoon = final.kinds != 1
    assert platoon.sum() == 6
    assert np.all(np.abs(final.speed[platoon] - 15.0) <= 0.05)

    # arrival counts are Poisson(600) across 200 seeded runs
    counts = []
    for seed in range(200):
        c = corridor(inputs=3600.0, total=600.0, warmup=10.0, dt=5.0, length=200.0, seed=seed)
        counts.append(len(run_scenario(c).arrival_times["E1"]))
    counts = np.asarray(counts)
    edges = np.unique(np.concatenate(
        [[-np.inf], stats.poisson.ppf(np.linspace(0.1, 0.9, 9), 600.0), [np.inf]]
    ))
    observed, _ = np.histogram(counts, bins=edges)
    cdf = stats.poisson.cdf(edges[1:-1], 600.0)
    probs = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    chi2 = float(np.sum((observed - probs * 200) ** 2 / (probs * 200)))
    assert chi2 < stats.chi2.ppf(0.99, df=len(observed) - 1)

    # inter-arrival gaps are exponential
    c = corridor(inputs=720.0, total=3000.0, warmup=10.0, dt=5.0, length=200.0, seed=3)
    gaps = np.diff(np.asarray(run_scenario(c).arrival_times["E1"]))
    ks = stats.kstest(gaps, "expon", args=(0.0, 3600.0 / 720.0))
    assert ks.pvalue > 0.01

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(7, f"equilibrium |a|<1e-9, platoon within 0.05 m/s, Poisson chi2 and KS at alpha=0.01, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# synthetic end-to-end recovery study (criteria 8-10)

MASTER_SEEDS = tuple(range(10))


@pytest.fixture(scope="module")
def recovery_study():
    truth = recovery_truth_values()
    scenario = recovery_truth_scenario()
    results = []
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for master in MASTER_SEEDS:
            field = generate_field_data(scenario, master)
            cfg = recovery_calibration_config(master_seed=master)
            report = calibrate(cfg, field_dataset=field)
            results.append((master, cfg, report))
    elapsed = time.perf_counter() - t0
    return {"results": results, "elapsed": elapsed, "truth": truth}


def test_criterion_8_synthetic_recovery(recovery_study):
    truth = recovery_study["truth"]
    passes = 0
    details = []
    for master, cfg, report in recovery_study["results"]:
        step = {
            eid: (1.2 - 0.8) * x0 / (cfg.stage1.levels - 1)
            for eid, x0 in cfg.scenario.entrance_inputs.items()
        }
        stage1_ok = all(
            abs(report.stage1.best_values[eid] - truth[eid]) <= step[eid] + 1e-9
            for eid in cfg.scenario.entrance_inputs
        )
        planted_ok = all(p in report.stage2.critical_set for p in RECOVERY_PLANTED)
        accuracy_ok = report.stage2.best_accuracy >= 0.8
        passes += stage1_ok and planted_ok and accuracy_ok
        details.append(
            f"m{master}: s1={int(stage1_ok)} planted={int(planted_ok)} "
            f"acc={report.stage2.best_accuracy:.3f}"
        )
    elapsed = recovery_study["elapsed"]
    print("; ".join(details))
    assert passes >= 8, details
    assert elapsed < 900.0, f"study took {elapsed:.0f} s"
    _ok(8, f"{passes}/10 master seeds recover inputs, planted parameters and accuracy >= 0.8; {elapsed:.0f} s")


def test_criterion_9_simulation_budget(recovery_study):
    saga = recovery_calibration_config().stage2.saga
    ceiling = 16 + 16 + saga.population_size * (saga.max_generations + 1)
    for master, cfg, report in recovery_study["results"]:
        print(
            f"m{master}: {report.optimization_simulations} simulations for "
            f"{report.cases_scored} cases scored (budget {ceiling})"
        )
        assert report.simulation_budget == ceiling
        assert report.optimization_simulations <= ceiling
        assert report.diagnostics["within_simulation_budget"]
    _ok(9, f"every run within the {ceiling}-simulation ceiling")


def test_criterion_10_determinism(tmp_path):
    master = MASTER_SEEDS[0]
    digests = []
    for run_dir in ("run_a", "run_b"):
        out = tmp_path / run_dir
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = generate_field_data(recovery_truth_scenario(), master)
            cfg = recovery_calibration_config(master_seed=master, output_dir=str(out))
            calibrate(cfg, field_dataset=field)
        digests.append({
            name: (out / name).read_bytes()
            for name in ("report.json", "config.json", "stage1_cases.csv",
                         "stage2_phase1_cases.csv", "saga_history.json")
        })
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], f"{name} differs between runs"
    _ok(10, "case logs and reports byte-identical across re-runs (timings excluded)")


def test_criterion_11_jaccard_regression():
    a = set(f"p{i}" for i in range(10))
    assert jaccard_similarity(a, set(a), 10) == 1.0
    assert jaccard_similarity(a, set(f"q{i}" for i in range(10)), 10) == 0.0
    half = set(f"p{i}" for i in range(5)) | set(f"q{i}" for i in range(5))
    assert jaccard_similarity(a, half, 10) == 0.5
    _ok(11, "similarity values {1.0, 0.0, 0.5} exact")
