import pytest

from avcalib.detection import SUBJECT
from avcalib.fielddata import CarFollowingEpisode, CutInEvent, EventSet, LaneChangeEvent
from avcalib.metrics import (
    AVG_CF_HEADWAY_BG,
    AVG_DENSITY,
    AVG_LC_DISTANCE_BG,
    AVG_LC_DISTANCE_SUBJECT,
    AVG_SUBJECT_SPEED,
    CUTIN_COUNT,
    CutinErrorParams,
    MopEntry,
    MopVector,
    ZeroFieldValueError,
    accuracy,
    compute_traffic_mops,
    compute_vehicle_mops,
    cutin_error,
    evaluate_moes,
    goodness_of_fit,
    jaccard_similarity,
)

from conftest import dataset, rec, surr


def mops(**values):
    return MopVector([MopEntry(name, v, "") for name, v in values.items()])


def events(episodes=(), lane_changes=(), cut_ins=()):
    return EventSet(
        lane_changes=tuple(lane_changes), cut_ins=tuple(cut_ins), episodes=tuple(episodes)
    )


def episode(follower, leader, headways, start=0.0, end=60.0):
    return CarFollowingEpisode(
        follower=follower, leader=leader, start_time=start, end_time=end,
        headway_series=tuple(headways),
    )


def lane_change(actor, dist, t=10.0):
    return LaneChangeEvent(
        actor=actor, start_time=t, end_time=t + 0.1, from_lane=1, to_lane=2,
        lc_distance=dist,
    )


# ---------------------------------------------------------------------------
# goodness of fit / accuracy


def test_fit_is_zero_for_identical_vectors():
    x = mops(a=2.0, b=5.0)
    assert goodness_of_fit(x, x) == 0.0
    assert accuracy(x, x) == 1.0


def test_fit_single_and_multiple_mops():
    assert goodness_of_fit(mops(a=10.0), mops(a=5.0)) == pytest.approx(0.5)
    f = goodness_of_fit(mops(a=10.0, b=4.0), mops(a=12.0, b=3.0))
    assert f == pytest.approx(0.45)
    assert accuracy(mops(a=10.0, b=4.0), mops(a=12.0, b=3.0)) == pytest.approx(0.55)


def test_accuracy_can_go_negative():
    assert accuracy(mops(a=10.0), mops(a=23.0)) == pytest.approx(-0.3)


def test_zero_field_value_is_an_error_naming_the_mop():
    with pytest.raises(ZeroFieldValueError, match="a"):
        goodness_of_fit(mops(a=0.0), mops(a=1.0))


def test_missing_entries_are_excluded_with_warning():
    field = MopVector([MopEntry("a", 10.0), MopEntry("b", None)])
    sim = MopVector([MopEntry("a", 5.0), MopEntry("b", 3.0)])
    with pytest.warns(UserWarning, match="b"):
        assert goodness_of_fit(field, sim) == pytest.approx(0.5)


def test_fit_invariant_under_common_rescaling_of_one_mop():
    field = mops(a=10.0, b=4.0)
    sim = mops(a=12.0, b=3.0)
    f0 = goodness_of_fit(field, sim)
    scaled_field = mops(a=10.0 * 7.5, b=4.0)
    scaled_sim = mops(a=12.0 * 7.5, b=3.0)
    assert goodness_of_fit(scaled_field, scaled_sim) == pytest.approx(f0, rel=1e-12)


# ---------------------------------------------------------------------------
# cut-in error


def test_cutin_error_regression():
    p = CutinErrorParams(delta_lb=0.0, delta_ub=1.0)
    assert cutin_error(5, 5, p) == 0.0
    assert cutin_error(5, 6, p) == 1.0
    assert cutin_error(5.0, 5.5, p) == 0.5
    assert cutin_error(2, 9, p) == 1.0


def test_cutin_error_monotone_and_continuous():
    p = CutinErrorParams(delta_lb=1.0, delta_ub=4.0)
    values = [cutin_error(10, 10 + d / 10.0, p) for d in range(0, 60)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert cutin_error(10, 11.0001, p) == pytest.approx(0.0, abs=1e-4)
    assert cutin_error(10, 13.9999, p) == pytest.approx(1.0, abs=1e-4)


def test_cutin_error_params_validated():
    with pytest.raises(ValueError):
        CutinErrorParams(delta_lb=2.0, delta_ub=1.0)
    with pytest.raises(ValueError):
        cutin_error(-1, 0)


# ---------------------------------------------------------------------------
# vehicle MoPs


def test_single_vehicle_headway():
    ev = events(episodes=[episode("7", "9", [2.0] * 30)])
    assert compute_vehicle_mops(ev).value(AVG_CF_HEADWAY_BG) == pytest.approx(2.0)


def test_background_headway_averages_per_vehicle_then_pools():
    ev = events(
        episodes=[episode("1", "x", [1.0] * 100), episode("2", "x", [3.0] * 2)]
    )
    # the vehicle mean, not the pooled mean of 1.04
    assert compute_vehicle_mops(ev).value(AVG_CF_HEADWAY_BG) == pytest.approx(2.0)


def test_subject_episodes_do_not_enter_background_headway():
    ev = events(episodes=[episode(SUBJECT, "x", [9.0] * 5), episode("1", "x", [2.0] * 5)])
    assert compute_vehicle_mops(ev).value(AVG_CF_HEADWAY_BG) == pytest.approx(2.0)


def test_missing_mops_flagged_not_zero():
    vm = compute_vehicle_mops(events())
    assert vm.entry(AVG_CF_HEADWAY_BG).missing
    assert vm.entry(AVG_LC_DISTANCE_SUBJECT).missing
    assert vm.entry(AVG_LC_DISTANCE_BG).missing
    # a zero cut-in count is an observation, not a gap
    assert vm.value(CUTIN_COUNT) == 0.0


def test_lane_change_distances_split_by_actor():
    ev = events(
        lane_changes=[
            lane_change(SUBJECT, 65.0),
            lane_change("5", 80.0),
            lane_change("5", 120.0),
            lane_change("6", 60.0),
            lane_change("7", None),
        ],
        cut_ins=[CutInEvent("5", 12.0, 20.0)],
    )
    vm = compute_vehicle_mops(ev)
    assert vm.value(AVG_LC_DISTANCE_SUBJECT) == pytest.approx(65.0)
    # per vehicle first: (100 + 60) / 2, unobserved distance excluded
    assert vm.value(AVG_LC_DISTANCE_BG) == pytest.approx(80.0)
    assert vm.value(CUTIN_COUNT) == 1.0


# ---------------------------------------------------------------------------
# traffic MoPs


def test_constant_speed_no_surroundings():
    ds = dataset([rec(t / 10.0, lane=1, speed_ms=60 / 3.6) for t in range(50)],
                 detection_range=(-150.0, 150.0))
    tm = compute_traffic_mops(ds)
    assert tm.value(AVG_SUBJECT_SPEED) == pytest.approx(60 / 3.6)
    assert tm.value(AVG_DENSITY) == pytest.approx(1.0 / 0.3)  # one lane observed
    tm2 = compute_traffic_mops(ds, lane_count=2)
    assert tm2.value(AVG_DENSITY) == pytest.approx(1.0 / 0.6)


def test_density_is_duration_weighted_under_concatenation():
    part_a = [rec(t * 0.1, surroundings=[surr(1, 1, 30.0)]) for t in range(40)]
    part_b = [rec(4.0 + t * 0.1) for t in range(10)]
    full = dataset(part_a + part_b)
    da = compute_traffic_mops(dataset(part_a)).value(AVG_DENSITY)
    db = compute_traffic_mops(dataset(part_b)).value(AVG_DENSITY)
    expected = (da * 40 + db * 10) / 50
    assert compute_traffic_mops(full).value(AVG_DENSITY) == pytest.approx(expected)


def test_density_matches_brute_force_recount():
    import numpy as np

    rng = np.random.default_rng(3)
    records = []
    for t in range(60):
        n = int(rng.integers(0, 5))
        records.append(
            rec(t * 0.1, lane=int(rng.integers(1, 3)), speed_ms=float(rng.uniform(5, 25)),
                surroundings=[surr(f"{t}_{k}", int(rng.integers(1, 3)),
                                   float(rng.uniform(-140, 140))) for k in range(n)])
        )
    ds = dataset(records)
    total = sum(1 + len(r.surroundings) for r in ds.records)
    lanes = 2
    expected = (total / len(ds.records)) / (0.3 * lanes)
    assert compute_traffic_mops(ds, lane_count=2).value(AVG_DENSITY) == pytest.approx(expected)


def test_per_road_density_entries():
    records = [rec(t * 0.1, road="A", surroundings=[surr(1, 1, 20.0)]) for t in range(10)]
    records += [rec(1.0 + t * 0.1, road="B") for t in range(30)]
    ds = dataset(records)
    tm = compute_traffic_mops(ds, lane_count=1, per_road=True)
    assert tm.value(f"{AVG_DENSITY}:A") == pytest.approx(2 / 0.3)
    assert tm.value(f"{AVG_DENSITY}:B") == pytest.approx(1 / 0.3)
    # whole-route entry unchanged by the flag
    assert tm.value(AVG_DENSITY) == pytest.approx((2 * 10 + 30) / 40 / 0.3)


def test_empty_dataset_is_an_error():
    with pytest.raises(ValueError):
        compute_traffic_mops(dataset([]))


# ---------------------------------------------------------------------------
# evaluation measures


def test_identical_sides_give_zero_moes():
    ds = dataset([rec(t * 0.1, surroundings=[surr(1, 1, 40.0, speed_ms=20.0)]) for t in range(80)])
    ev = events(
        episodes=[episode(SUBJECT, "1", [2.0] * 10), episode("1", "2", [1.5] * 10)],
        lane_changes=[lane_change(SUBJECT, 50.0), lane_change("1", 70.0)],
        cut_ins=[CutInEvent("1", 3.0, 25.0)],
    )
    report = evaluate_moes(ds, ev, ds, ev)
    d = report.to_dict()
    for key in ("e_t_sub", "e_t_bg", "e_d_sub", "e_d_bg", "e_cutin",
                "e_v", "e_rho", "e_vol", "e_dynamics", "e_veh"):
        assert d[key] == pytest.approx(0.0), key
    assert not report.errors


def test_subject_headway_error_example():
    ds = dataset([rec(t * 0.1) for t in range(10)])
    field_ev = events(episodes=[episode(SUBJECT, "1", [2.0] * 10)])
    sim_ev = events(episodes=[episode(SUBJECT, "1", [2.5] * 10)])
    report = evaluate_moes(ds, field_ev, ds, sim_ev)
    assert report.e_t_sub == pytest.approx(0.25)


def test_moe_report_against_independent_recomputation():
    field_records = [
        rec(t * 0.1, speed_ms=15.0,
            surroundings=[surr(1, 1, 40.0, speed_ms=18.0), surr(2, 2, -30.0, speed_ms=21.0)])
        for t in range(50)
    ]
    sim_records = [
        rec(t * 0.1, speed_ms=14.0,
            surroundings=[surr(1, 1, 45.0, speed_ms=19.0)])
        for t in range(50)
    ]
    field_ds, sim_ds = dataset(field_records), dataset(sim_records)
    field_ev = events(
        episodes=[
            episode(SUBJECT, "1", [2.0, 2.2, 1.8]),
            episode("1", "2", [1.0] * 100),
            episode("2", "1", [3.0] * 2),
        ],
        lane_changes=[
            lane_change(SUBJECT, 60.0), lane_change(SUBJECT, 80.0),
            lane_change("1", 100.0), lane_change("2", 50.0), lane_change("2", 70.0),
        ],
        cut_ins=[CutInEvent("1", 1.0, 20.0), CutInEvent("2", 20.0, 30.0),
                 CutInEvent("1", 40.0, 25.0)],
    )
    sim_ev = events(
        episodes=[
            episode(SUBJECT, "1", [2.4, 2.6]),
            episode("1", "2", [1.2] * 10),
            episode("2", "1", [2.6] * 10),
        ],
        lane_changes=[
            lane_change(SUBJECT, 90.0),
            lane_change("1", 110.0), lane_change("2", 40.0),
        ],
        cut_ins=[CutInEvent("1", 5.0, 22.0), CutInEvent("2", 18.0, 28.0),
                 CutInEvent("1", 30.0, 21.0), CutInEvent("2", 44.0, 26.0)],
    )
    report = evaluate_moes(field_ds, field_ev, sim_ds, sim_ev,
                           CutinErrorParams(0.0, 1.0), lane_count=2)

    # independent, spreadsheet-style recomputation
    f_t_sub = (2.0 + 2.2 + 1.8) / 3
    s_t_sub = (2.4 + 2.6) / 2
    e_t_sub = abs(f_t_sub - s_t_sub) / f_t_sub
    f_t_bg = (1.0 + 3.0) / 2  # per vehicle means first: 1.0 and 3.0
    s_t_bg = (1.2 + 2.6) / 2
    e_t_bg = abs(f_t_bg - s_t_bg) / f_t_bg
    f_d_sub = (60.0 + 80.0) / 2
    s_d_sub = 90.0
    e_d_sub = abs(f_d_sub - s_d_sub) / f_d_sub
    f_d_bg = (100.0 + 60.0) / 2  # vehicle 1: 100, vehicle 2: (50+70)/2
    s_d_bg = (110.0 + 40.0) / 2
    e_d_bg = abs(f_d_bg - s_d_bg) / f_d_bg
    e_cutin = 1.0  # |3 - 4| reaches the upper break
    f_speed = (15.0 + 18.0 + 21.0) / 3
    s_speed = (14.0 + 19.0) / 2
    e_v = abs(f_speed - s_speed) / f_speed
    f_rho = 3 / (0.3 * 2)
    s_rho = 2 / (0.3 * 2)
    e_rho = abs(f_rho - s_rho) / f_rho
    f_vol = f_rho * f_speed * 3.6
    s_vol = s_rho * s_speed * 3.6
    e_vol = abs(f_vol - s_vol) / f_vol
    e_dyn = abs(15.0 - 14.0) / 15.0

    assert report.e_t_sub == pytest.approx(e_t_sub, abs=1e-9)
    assert report.e_t_bg == pytest.approx(e_t_bg, abs=1e-9)
    assert report.e_d_sub == pytest.approx(e_d_sub, abs=1e-9)
    assert report.e_d_bg == pytest.approx(e_d_bg, abs=1e-9)
    assert report.e_cutin == pytest.approx(e_cutin, abs=1e-9)
    assert report.e_v == pytest.approx(e_v, abs=1e-9)
    assert report.e_rho == pytest.approx(e_rho, abs=1e-9)
    assert report.e_vol == pytest.approx(e_vol, abs=1e-9)
    assert report.e_dynamics == pytest.approx(e_dyn, abs=1e-9)
    assert report.e_veh == pytest.approx(
        e_t_sub + e_t_bg + e_d_sub + e_d_bg + e_cutin, abs=1e-9
    )


def test_unobservable_moes_reported_as_errors_not_crash():
    ds = dataset([rec(t * 0.1) for t in range(10)])
    report = evaluate_moes(ds, events(), ds, events())
    assert "e_t_sub" in report.errors
    assert "e_d_sub" in report.errors
    assert report.e_cutin == 0.0  # zero on both sides
    assert report.e_dynamics == pytest.approx(0.0)
    assert report.e_veh is None


# ---------------------------------------------------------------------------
# similarity index


def test_jaccard_regressions():
    a = set(range(10))
    assert jaccard_similarity(a, set(a), 10) == 1.0
    assert jaccard_similarity(a, set(range(10, 20)), 10) == 0.0
    b = set(range(5)) | set(range(20, 25))
    assert jaccard_similarity(a, b, 10) == 0.5


def test_jaccard_symmetry_and_errors():
    a, b = {"x", "y"}, {"y", "z"}
    assert jaccard_similarity(a, b, 2) == jaccard_similarity(b, a, 2)
    with pytest.raises(ValueError):
        jaccard_similarity({"x"}, {"x", "y"}, 2)
    with pytest.raises(ValueError):
        jaccard_similarity(set(), set(), 0)


def test_mop_vector_mean():
    m = MopVector.mean_of([mops(a=1.0), mops(a=3.0)])
    assert m.value("a") == 2.0
    mixed = MopVector.mean_of(
        [MopVector([MopEntry("a", None)]), MopVector([MopEntry("a", 4.0)])]
    )
    assert mixed.value("a") == 4.0
