import io
import random
from dataclasses import replace

import pytest

from avcalib.detection import SUBJECT, DETECTION_COLUMNS
from avcalib.fielddata import (
    RowError,
    SchemaError,
    detect_car_following,
    export_detection_csv,
    extract_events,
    parse_field_data,
    preprocess,
)

from conftest import dataset, rec, surr

HEADER = ",".join(DETECTION_COLUMNS)


# ---------------------------------------------------------------------------
# parsing


def test_empty_file_with_header_parses_to_zero_records():
    ds = parse_field_data(io.StringIO(HEADER + "\n"))
    assert len(ds) == 0


def test_missing_column_raises_schema_error_naming_it():
    header = ",".join(c for c in DETECTION_COLUMNS if c != "Lane distance")
    with pytest.raises(SchemaError, match="Lane distance"):
        parse_field_data(io.StringIO(header + "\n"))


def test_bad_numeric_raises_row_error_with_line_number():
    row = "0.0,R1,80,oops,0,0,0,0,1,0.2,,,,,,"
    with pytest.raises(RowError, match="line 2"):
        parse_field_data(io.StringIO(HEADER + "\n" + row + "\n"))


def test_negative_lane_distance_sign_preserved():
    row = "0.0,R1,80,54.0,0,0,0,0,1,-0.3,,,,,,"
    ds = parse_field_data(io.StringIO(HEADER + "\n" + row + "\n"))
    assert ds.records[0].lane_distance == -0.3
    assert ds.records[0].lane_id == 1


def test_rows_with_same_timestamp_merge_into_one_record():
    rows = [
        "1.5,R1,80,54.0,0,0,0,0,2,0.1,7,1,33.5,-3.5,61.2,0.0",
        "1.5,R1,80,54.0,0,0,0,0,2,0.1,9,2,-12.0,0.0,58.0,1.0",
        "1.6,R1,80,54.0,0,0,0,0,2,0.1,,,,,,",
    ]
    ds = parse_field_data(io.StringIO(HEADER + "\n" + "\n".join(rows) + "\n"))
    assert len(ds) == 2
    first = ds.records[0]
    assert [o.vehicle_id for o in first.surroundings] == ["7", "9"]
    assert first.surroundings[0].rel_longitudinal == 33.5
    assert first.surroundings[0].speed_ms == pytest.approx(61.2 / 3.6)
    assert ds.records[1].surroundings == ()


def test_unknown_columns_kept_opaque_and_roundtripped():
    header = HEADER + ",Weather"
    row = "0.0,R1,80,50.0,0,0,0,0,1,0.2,,,,,,,sunny"
    ds = parse_field_data(io.StringIO(header + "\n" + row + "\n"))
    assert ds.records[0].extras == (("Weather", "sunny"),)
    back = parse_field_data(io.StringIO(export_detection_csv(ds)))
    assert back.records[0].extras == (("Weather", "sunny"),)


def test_decreasing_timestamps_rejected():
    rows = ["1.0,R1,80,50,0,0,0,0,1,0.2,,,,,,", "0.5,R1,80,50,0,0,0,0,1,0.2,,,,,,"]
    with pytest.raises(ValueError, match="non-decreasing"):
        parse_field_data(io.StringIO(HEADER + "\n" + "\n".join(rows) + "\n"))


def test_vehicle_listed_twice_in_one_record_rejected():
    row = "1.5,R1,80,54.0,0,0,0,0,2,0.1,7,1,33.5,-3.5,61.2,0.0"
    with pytest.raises(ValueError, match=r"'7' listed twice at t=1\.5"):
        parse_field_data(io.StringIO(HEADER + "\n" + row + "\n" + row + "\n"))


def test_export_parse_roundtrip_identity():
    records = []
    rng = random.Random(4)
    for t in range(40):
        surrs = [
            surr(k, rng.randint(1, 3), rng.uniform(-140, 140), rng.uniform(-7, 7),
                 rng.uniform(3, 25), rng.uniform(-5, 5))
            for k in range(rng.randint(0, 3))
        ]
        records.append(rec(t * 0.1, lane=rng.randint(1, 3),
                           speed_ms=rng.uniform(0, 30), surroundings=surrs,
                           accel=rng.uniform(-3, 2), lane_distance=rng.uniform(-1.7, 1.7)))
    # a record with many surroundings, one CSV row each, keeps them in order
    crowd = [surr(k, 1 + k % 3, rng.uniform(-140, 140)) for k in range(60)]
    records.append(rec(4.0, surroundings=crowd))
    ds = dataset(records)
    back = parse_field_data(io.StringIO(export_detection_csv(ds)))
    assert back.records == ds.records
    assert back.records[-1].surroundings == tuple(crowd)


# ---------------------------------------------------------------------------
# preprocessing


def test_zero_window_and_infinite_jump_is_identity():
    ds = dataset([rec(t * 0.1, speed_ms=10 + 0.1 * t,
                      surroundings=[surr(1, 1, 30.0 + t)]) for t in range(30)])
    out = preprocess(ds, smoothing_window_s=0.0, max_speed_jump=float("inf"))
    assert out.records == ds.records
    assert out.meta.preprocessed


def test_constant_series_fixed_under_any_window():
    ds = dataset([rec(t * 0.1, speed_ms=15.0, surroundings=[surr(1, 1, 40.0)])
                  for t in range(50)])
    out = preprocess(ds, smoothing_window_s=1.0)
    assert [r.speed_kmh for r in out.records] == [15.0 * 3.6] * 50
    assert [r.surroundings[0].rel_longitudinal for r in out.records] == [40.0] * 50


def test_single_spike_flagged_and_interpolated():
    speeds = [20.0] * 10 + [50.0] + [20.0] * 10
    ds = dataset([rec(t * 0.1, speed_ms=v) for t, v in enumerate(speeds)])
    out = preprocess(ds, smoothing_window_s=0.0, max_speed_jump=15.0)
    assert out.records[10].speed_ms == pytest.approx(20.0)  # (20 + 20) / 2
    assert out.meta.n_interpolated == 1
    assert len(out.records) == len(ds.records)


def test_ramp_below_jump_threshold_untouched():
    speeds = [10.0 + 0.5 * t for t in range(20)]
    ds = dataset([rec(t * 0.1, speed_ms=v) for t, v in enumerate(speeds)])
    out = preprocess(ds, smoothing_window_s=0.0, max_speed_jump=15.0)
    assert [r.speed_ms for r in out.records] == pytest.approx(speeds)


# ---------------------------------------------------------------------------
# lane changes


def _trace_with_subject_change(debounced=True):
    records = []
    for t in range(60):
        lane = 2 if t < 30 or (not debounced and t >= 34) else 3
        surrs = [surr(1, 3, 40.0), surr(2, 3, -25.0)]
        records.append(rec(t * 0.1, lane=lane, surroundings=surrs))
    return dataset(records)


def test_constant_lane_yields_no_events():
    ds = dataset([rec(t * 0.1, lane=2) for t in range(40)])
    assert extract_events(ds).lane_changes == ()


def test_subject_lane_change_with_target_gap():
    ds = _trace_with_subject_change()
    evs = extract_events(ds, debounce_s=1.0).lane_changes
    assert len(evs) == 1
    ev = evs[0]
    assert ev.actor == SUBJECT
    assert (ev.from_lane, ev.to_lane) == (2, 3)
    assert ev.lc_distance == pytest.approx(65.0)  # 40 - (-25)
    assert ev.start_time == pytest.approx(2.9)
    assert ev.end_time == pytest.approx(3.0)


def test_oscillation_within_debounce_yields_no_events():
    ds = _trace_with_subject_change(debounced=False)  # 2 -> 3 -> 2 within 0.4 s
    assert extract_events(ds, debounce_s=1.0).lane_changes == ()


def test_partially_observed_gap_flagged():
    records = [rec(t * 0.1, lane=2 if t < 30 else 3, surroundings=[surr(1, 3, 40.0)])
               for t in range(60)]
    evs = extract_events(dataset(records)).lane_changes
    assert len(evs) == 1
    assert evs[0].lc_distance is None


def test_surrounding_lane_change_detected_with_lateral_motion():
    records = []
    for t in range(60):
        lane = 1 if t < 30 else 2
        lat = -3.5 if t < 30 else 0.0
        records.append(rec(t * 0.1, lane=2, surroundings=[surr(7, lane, 25.0, lat)]))
    evs = extract_events(dataset(records)).lane_changes
    assert len(evs) == 1
    assert evs[0].actor == "7"
    assert (evs[0].from_lane, evs[0].to_lane) == (1, 2)


def test_lateral_motion_contradiction_defers_confirmation():
    # lane id says left while the lateral motion says right: the transition
    # sample is rejected as initiation; the event is only confirmed once the
    # new lane id persists without a contradicting jump
    records = []
    for t in range(60):
        lane = 1 if t < 30 else 2
        lat = 0.0 if t < 30 else -3.5
        records.append(rec(t * 0.1, lane=2, surroundings=[surr(7, lane, 25.0, lat)]))
    evs = extract_events(dataset(records)).lane_changes
    assert len(evs) == 1
    assert evs[0].end_time > 3.0 + 0.5  # not at the contradicted instant


# ---------------------------------------------------------------------------
# cut-ins


def test_no_shared_lane_no_cutins():
    ds = dataset([rec(t * 0.1, lane=1, surroundings=[surr(1, 2, 30.0)]) for t in range(50)])
    assert extract_events(ds).cut_ins == ()


def _cutin_trace(entry_rel=20.0):
    records = []
    for t in range(60):
        lane = 2 if t < 30 else 1
        lat = 3.5 if t < 30 else 0.0
        records.append(rec(t * 0.1, lane=1, surroundings=[surr(5, lane, entry_rel, lat)]))
    return dataset(records)


def test_cutin_ahead_of_subject_detected():
    evs = extract_events(_cutin_trace(20.0)).cut_ins
    assert len(evs) == 1
    assert evs[0].intruder == "5"
    assert evs[0].entry_gap == pytest.approx(20.0)
    assert evs[0].time == pytest.approx(3.0)


def test_entry_behind_subject_is_not_a_cutin():
    assert extract_events(_cutin_trace(-20.0)).cut_ins == ()


def test_entry_beyond_forward_window_is_not_a_cutin():
    assert extract_events(_cutin_trace(80.0), cutin_front_max=50.0).cut_ins == ()
    assert len(extract_events(_cutin_trace(80.0), cutin_front_max=100.0).cut_ins) == 1


def test_cutin_deduplicated_per_intruder_within_window():
    records = []
    for t in range(150):
        phase = (t // 30) % 2
        lane = 2 if phase == 0 else 1
        lat = 3.5 if phase == 0 else 0.0
        records.append(rec(t * 0.1, lane=1, surroundings=[surr(5, lane, 20.0, lat)]))
    evs = extract_events(dataset(records), cutin_dedup_s=10.0).cut_ins
    assert len(evs) == 1
    evs = extract_events(dataset(records), cutin_dedup_s=5.0).cut_ins
    assert len(evs) == 2


def test_every_cutin_coincides_with_a_lane_change():
    events = extract_events(_cutin_trace(20.0))
    for c in events.cut_ins:
        assert any(
            e.actor == c.intruder and e.end_time == c.time and e.to_lane == 1
            for e in events.lane_changes
        )


# ---------------------------------------------------------------------------
# car following


def test_subject_alone_no_episodes():
    ds = dataset([rec(t * 0.1) for t in range(100)])
    assert detect_car_following(ds) == []


def test_steady_leader_episode_headways():
    ds = dataset([rec(t * 0.1, lane=1, speed_ms=15.0,
                      surroundings=[surr(9, 1, 30.0, speed_ms=15.0)])
                  for t in range(601)])
    eps = detect_car_following(ds, min_duration=5.0)
    assert len(eps) == 1
    ep = eps[0]
    assert ep.follower == SUBJECT and ep.leader == "9"
    assert ep.duration == pytest.approx(60.0)
    assert all(h == pytest.approx(2.0) for h in ep.headway_series)


def test_short_episodes_dropped_and_slow_samples_excluded():
    ds = dataset([rec(t * 0.1, speed_ms=15.0, surroundings=[surr(9, 1, 30.0)])
                  for t in range(30)])
    assert detect_car_following(ds, min_duration=5.0) == []
    slow = dataset([rec(t * 0.1, speed_ms=0.5, surroundings=[surr(9, 1, 30.0)])
                    for t in range(100)])
    eps = detect_car_following(slow, min_duration=5.0)
    assert len(eps) == 1 and eps[0].headway_series == ()


def _random_trace(seed, n=80, n_veh=4):
    rng = random.Random(seed)
    lanes = {v: rng.randint(1, 2) for v in range(n_veh)}
    pos = {v: rng.uniform(-100, 100) for v in range(n_veh)}
    records = []
    subj_lane = 1
    for t in range(n):
        if rng.random() < 0.05:
            subj_lane = rng.randint(1, 2)
        surrs = []
        for v in range(n_veh):
            if rng.random() < 0.04:
                lanes[v] = rng.randint(1, 2)
            pos[v] += rng.uniform(-2, 2)
            if abs(pos[v]) <= 150 and rng.random() > 0.05:
                surrs.append(surr(v, lanes[v], pos[v], 0.0, rng.uniform(8, 20)))
        records.append(rec(t * 0.5, lane=subj_lane, speed_ms=rng.uniform(8, 20),
                           surroundings=surrs))
    return dataset(records, interval=0.5)


def _brute_force_episodes(ds, max_gap=120.0, min_duration=5.0, min_speed=1.0):
    episodes = []
    records = ds.records
    pair_at = []
    for r in records:
        entities = [(SUBJECT, 0.0, r.lane_id, r.speed_ms)] + [
            (o.vehicle_id, o.rel_longitudinal, o.lane_id, o.speed_ms)
            for o in r.surroundings
        ]
        pairs = {}
        for fid, fpos, flane, fspeed in entities:
            cands = [
                (lpos - fpos, lid)
                for lid, lpos, llane, _ in entities
                if lid != fid and llane == flane and 0 < lpos - fpos <= max_gap
            ]
            if cands:
                gap, lid = min(cands, key=lambda c: (c[0], c[1]))
                pairs[fid] = (lid, gap, fspeed, flane)
        pair_at.append(pairs)
    seen = set()
    for i0 in range(len(records)):
        for fid, (lid, _, _, lane0) in pair_at[i0].items():
            key = (i0, fid, lid)
            if (i0 > 0 and fid in pair_at[i0 - 1]
                    and pair_at[i0 - 1][fid][0] == lid
                    and pair_at[i0 - 1][fid][3] == lane0):
                continue  # not a run start
            j = i0
            headways = []
            while (
                j < len(records)
                and fid in pair_at[j]
                and pair_at[j][fid][0] == lid
                and pair_at[j][fid][3] == lane0
            ):
                _, gap, fspeed, _ = pair_at[j][fid]
                if fspeed >= min_speed:
                    headways.append(gap / fspeed)
                j += 1
            t0, t1 = records[i0].timestamp, records[j - 1].timestamp
            if t1 - t0 >= min_duration and key not in seen:
                seen.add(key)
                episodes.append((fid, lid, t0, t1, tuple(headways)))
    episodes.sort(key=lambda e: (e[2], str(e[0]), str(e[1])))
    return episodes


@pytest.mark.parametrize("seed", range(6))
def test_episodes_match_brute_force_scanner(seed):
    ds = _random_trace(seed)
    got = [
        (e.follower, e.leader, e.start_time, e.end_time, e.headway_series)
        for e in detect_car_following(ds)
    ]
    expected = _brute_force_episodes(ds)
    assert got == expected


@pytest.mark.parametrize("seed", range(4))
def test_episode_durations_bounded_by_dataset_duration(seed):
    ds = _random_trace(seed, n=120)
    eps = detect_car_following(ds, min_duration=2.0)
    per_follower = {}
    for e in eps:
        per_follower.setdefault(e.follower, 0.0)
        per_follower[e.follower] += e.duration
    for total in per_follower.values():
        assert total <= ds.duration + 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_extraction_independent_of_surrounding_order(seed):
    ds = _random_trace(seed)
    rng = random.Random(seed + 99)
    shuffled_records = []
    for r in ds.records:
        surrs = list(r.surroundings)
        rng.shuffle(surrs)
        shuffled_records.append(
            replace(r, surroundings=tuple(surrs))
        )
    shuffled = dataset(shuffled_records, interval=0.5)
    a, b = extract_events(ds), extract_events(shuffled)
    assert a.lane_changes == b.lane_changes
    assert a.cut_ins == b.cut_ins
    assert a.episodes == b.episodes


def test_export_events_csv(tmp_path):
    ds = _cutin_trace(20.0)
    events = extract_events(ds, cf_min_duration=2.0)
    from avcalib.fielddata import export_events_csv

    export_events_csv(events, tmp_path)
    assert (tmp_path / "lane_changes.csv").exists()
    assert (tmp_path / "cutins.csv").exists()
    assert (tmp_path / "episodes.csv").exists()
    lines = (tmp_path / "cutins.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + len(events.cut_ins)
