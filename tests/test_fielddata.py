import io
import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avcalib.detection import SUBJECT, DETECTION_COLUMNS
from avcalib.fielddata import (
    CarFollowingEpisode,
    CutInEvent,
    EventSet,
    LaneChangeEvent,
    RowError,
    SchemaError,
    _despike,
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


# ---------------------------------------------------------------------------
# columns against a per-record reference


def _despike_reference(values, max_jump):
    """_despike as first written: each spike scans every accepted sample for
    its anchors."""
    out = list(values)
    good, bad = [0], []
    for i in range(1, len(values)):
        if abs(values[i] - values[good[-1]]) > max_jump * (i - good[-1]):
            bad.append(i)
        else:
            good.append(i)
    for i in bad:
        left = max(g for g in good if g < i)
        rights = [g for g in good if g > i]
        if rights:
            right = min(rights)
            out[i] = values[left] + (i - left) / (right - left) * (values[right] - values[left])
        else:
            out[i] = values[left]
    return out, len(bad)


_RANDOM_SERIES = [
    [random.Random(k).choice([20.0, 20.5, 21.0, 60.0, 95.0, -30.0]) for _ in range(40)]
    for k in range(12)
]


@pytest.mark.parametrize("values, expected", [
    # a spike at the start anchors the series: everything after it is held
    ([90.0, 20.0, 21.0, 22.0, 23.0], ([90.0] * 5, 4)),
    ([20.0, 21.0, 90.0, 22.0, 95.0, 23.0], ([20.0, 21.0, 21.5, 22.0, 22.5, 23.0], 2)),
    # spikes at the end have no right anchor: held at the last good sample
    ([20.0, 21.0, 22.0, 90.0, 95.0], ([20.0, 21.0, 22.0, 22.0, 22.0], 2)),
    *[(values, None) for values in _RANDOM_SERIES],
])
def test_despike_matches_the_full_scan(values, expected):
    out = _despike(values, 15.0)
    assert out == _despike_reference(values, 15.0)
    if expected is not None:
        assert out == expected


def _expand(rows):
    """A dataset from record templates (dt, repeats, subject lane, subject
    speed in m/s, observations), each template repeated `repeats` times."""
    records, t = [], 0.0
    for dt, repeats, lane, speed, obs in rows:
        for _ in range(repeats):
            t = round(t + dt, 6)
            records.append(rec(t, lane=lane, speed_ms=speed, surroundings=[
                surr(vid, o_lane, pos, lat, o_speed) for vid, o_lane, pos, lat, o_speed in obs
            ]))
    return dataset(records)


def _reference_events(ds, debounce_s, cutin_front_max, cutin_dedup_s, cf_max_gap,
                      cf_min_duration, cf_min_speed):
    """extract_events one record and one vehicle at a time."""
    records = ds.records
    times = [r.timestamp for r in records]

    def scan(ts, lanes, lats=None, subject=None):
        out, confirmed, i = [], lanes[0], 1
        while i < len(lanes):
            if lanes[i] == confirmed:
                i += 1
                continue
            j, ok = i, True
            while j < len(lanes) and ts[j] < ts[i] + debounce_s:
                if lanes[j] != lanes[i]:
                    ok = False
                    break
                j += 1
            if ok and lats is not None:
                dlat = lats[i] - lats[i - 1]
                if subject[i] == subject[i - 1] and dlat != 0.0 and (dlat > 0) != (lanes[i] > confirmed):
                    ok = False
            if ok:
                out.append((i, confirmed, lanes[i]))
                confirmed = lanes[i]
            i = max(j, i + 1)
        return out

    def position(r, actor):
        if actor == SUBJECT:
            return 0.0
        return next(o.rel_longitudinal for o in r.surroundings if o.vehicle_id == actor)

    details = [(SUBJECT, i - 1, i, frm, to) for i, frm, to in scan(times, [r.lane_id for r in records])]
    present = {}
    for idx, r in enumerate(records):
        for o in r.surroundings:
            present.setdefault(o.vehicle_id, []).append((idx, o))
    for vid in sorted(present):
        entries, start = present[vid], 0
        for k in range(1, len(entries) + 1):
            if k < len(entries) and entries[k][0] == entries[k - 1][0] + 1:
                continue
            run, start = entries[start:k], k
            idx = [i for i, _ in run]
            for k_init, frm, to in scan([times[i] for i in idx], [o.lane_id for _, o in run],
                                        [o.rel_lateral for _, o in run],
                                        [records[i].lane_id for i in idx]):
                details.append((vid, idx[k_init - 1], idx[k_init], frm, to))
    details.sort(key=lambda e: (times[e[2]], e[0]))

    def target_gap(r, actor, lane):
        p = position(r, actor)
        others = [0.0] if actor != SUBJECT and r.lane_id == lane else []
        others += [o.rel_longitudinal for o in r.surroundings
                   if o.vehicle_id != actor and o.lane_id == lane]
        ahead, behind = [q for q in others if q > p], [q for q in others if q < p]
        return min(ahead) - max(behind) if ahead and behind else None

    lane_changes = tuple(
        LaneChangeEvent(a, times[i0], times[i1], frm, to, target_gap(records[i0], a, to))
        for a, i0, i1, frm, to in details
    )
    cut_ins, last = [], {}
    for a, _i0, i1, _frm, to in details:
        if a == SUBJECT or to != records[i1].lane_id:
            continue
        gap = position(records[i1], a)
        if not 0.0 < gap <= cutin_front_max or (a in last and times[i1] - last[a] < cutin_dedup_s):
            continue
        last[a] = times[i1]
        cut_ins.append(CutInEvent(a, times[i1], gap))
    episodes = tuple(
        CarFollowingEpisode(*e)
        for e in _brute_force_episodes(ds, cf_max_gap, cf_min_duration, cf_min_speed)
    )
    return EventSet(lane_changes, tuple(cut_ins), episodes)


_THRESHOLDS = dict(debounce_s=0.3, cutin_front_max=30.0, cutin_dedup_s=1.0, cf_max_gap=50.0,
                   cf_min_duration=0.5, cf_min_speed=1.0)
# a position list with exact ties, and two positions (3 and the next float)
# whose gaps from -1 both round to 4
_POSITIONS = (-40.0, -10.0, -1.0, -0.0, 0.0, 3.0, math.nextafter(3.0, 4.0), 10.0, 25.0, 45.0)
_OBSERVATION = st.tuples(
    st.sampled_from(("1", "2", "9", "10", "t")),
    st.integers(1, 3),
    st.sampled_from(_POSITIONS) | st.floats(-60.0, 60.0),
    st.sampled_from((-3.5, -0.3, 0.0, 0.3, 3.5)),
    st.sampled_from((0.0, 0.5, 10.0, 20.0)),
)
_TEMPLATE = st.tuples(
    st.sampled_from((0.1, 0.2, 0.5)),
    st.integers(1, 6),
    st.integers(1, 3),
    st.sampled_from((0.5, 12.0, 20.0)),
    st.lists(_OBSERVATION, max_size=5, unique_by=lambda o: o[0]),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_TEMPLATE, min_size=1, max_size=12))
@example(rows=[  # ids 9 and 10 at one gap ahead of the subject: "10" sorts first
    (0.1, 8, 1, 12.0, [("9", 1, 10.0, 0.0, 10.0), ("10", 1, 10.0, 0.0, 10.0)]),
])
@example(rows=[  # two leaders 4 ahead of vehicle 9 after rounding: "1" sorts first
    (0.1, 8, 2, 12.0, [("1", 1, math.nextafter(3.0, 4.0), 0.0, 10.0),
                       ("2", 1, 3.0, 0.0, 10.0), ("9", 1, -1.0, 0.0, 10.0)]),
])
@example(rows=[  # a vehicle abreast of the subject: neither leads the other
    (0.1, 8, 1, 12.0, [("t", 1, 0.0, 0.0, 12.0), ("2", 1, 12.0, 0.0, 12.0)]),
])
@example(rows=[  # the subject tied with vehicle 1 ahead of vehicle 2
    (0.1, 8, 1, 12.0, [("1", 1, -0.0, 0.0, 12.0), ("2", 1, -8.0, 0.0, 12.0)]),
    (0.1, 8, 1, 12.0, [("t", 1, 0.0, 0.0, 12.0), ("2", 1, -8.0, 0.0, 12.0)]),
])
@example(rows=[  # vehicle 1 leaves the window and comes back in another lane
    (0.1, 6, 1, 12.0, [("1", 1, 10.0, 0.0, 10.0), ("2", 2, 20.0, 3.5, 10.0)]),
    (0.1, 4, 1, 12.0, [("2", 1, 20.0, 0.0, 10.0)]),
    (0.1, 6, 1, 12.0, [("1", 2, 10.0, 3.5, 10.0), ("2", 1, 20.0, 0.0, 10.0)]),
])
def test_extraction_matches_the_per_record_reference(rows):
    ds = _expand(rows)
    assert extract_events(ds, **_THRESHOLDS) == _reference_events(ds, **_THRESHOLDS)


# ---------------------------------------------------------------------------
# CSV bytes


def test_export_reproduces_the_bytes_it_parsed(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    files = []
    for name, setup in (("ga", workloads.ga_setup), ("merge", workloads.merge_setup)):
        (tmp_path / name).mkdir()
        setup(0, tmp_path / name)
        files.append(tmp_path / name / workloads.FIELD_CSV)
    # extra columns, and a record with no surroundings, in canonical form
    extra = tmp_path / "extra.csv"
    extra.write_text(
        HEADER + ",Weather,Note\n"
        "0.1,R1,80.0,50.0,0.0,12.5,0.0,-0.5,1,0.2,7,1,33.5,-3.5,61.2,0.0,sunny,\"a, b\"\n"
        "0.1,R1,80.0,50.0,0.0,12.5,0.0,-0.5,1,0.2,10,2,-12.0,0.25,58.0,1.5,sunny,\"a, b\"\n"
        "0.2,R 2,80.0,50.5,0.01,13.0,0.0,0.0,2,-1.75,,,,,,,rain,\n"
        "0.30000000000000004,R 2,80.0,51.0,0.0,13.5,0.0,0.0,2,-0.0,9,2,5e-05,0.0,1e+22,-0.0,,x\n"
    )
    files.append(extra)
    for path in files:
        text = path.read_text()
        assert export_detection_csv(parse_field_data(path)) == text, path.name


@pytest.mark.parametrize("text, error, message", [
    ("", SchemaError, "empty input: no header row"),
    (HEADER.replace(",Lane distance", ""), SchemaError, "missing mandatory column: 'Lane distance'"),
    (HEADER + "\n0.0,R1,80,oops,0,0,0,0,1,0.2,,,,,,\n", RowError,
     "line 2: column 'Speed': cannot parse number from 'oops'"),
    (HEADER + "\n0.0,R1,80,50,0,0,0,0,1,0.2,7,1,3,0,50,0\n\n0.0,R1,80,50,0,0,0,0,1,0.2,8,x,3,0,50,0\n",
     RowError, "line 4: column \"Surrounding vehicle's Lane ID\": cannot parse number from 'x'"),
    (HEADER + "\n0.0,R1,80,50,0,0,0,0,1,0.2,7,1,3,0,50,0\n0.1,R1,80\n", RowError,
     "line 3: expected 16 fields, got 3"),
    (HEADER + "\n0.0,R1,80,50,0,0,0,0,1,0.2,,,,,,\n-0.1,R1,80,50,0,0,0,0,1,0.2,,,,,,\n",
     ValueError, "timestamps must be non-decreasing; -0.1 after 0.0"),
    (HEADER + "\n0.5,R1,80,50,0,0,0,0,1,0.2,7,1,3,0,50,0\n0.5,R1,80,50,0,0,0,0,1,0.2,7,1,3,0,50,0\n",
     ValueError, "surrounding vehicle '7' listed twice at t=0.5"),
])
def test_parse_errors_keep_their_message_and_line(text, error, message):
    with pytest.raises(error) as info:
        parse_field_data(io.StringIO(text))
    assert str(info.value) == message
    if error is RowError:
        assert info.value.line_number == int(message.split()[1].rstrip(":"))
