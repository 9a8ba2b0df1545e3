import io

import numpy as np
import pytest

from avcalib.fielddata import parse_field_data, export_detection_csv
from avcalib.roadsim import (
    BehaviorSpec,
    Entrance,
    IdmParams,
    LaneChangeParams,
    Link,
    MissingSubjectError,
    RoadNetwork,
    ScenarioConfig,
    Simulation,
    VirtualDetector,
    virtual_detector_sample,
)
from avcalib.roadsim.engine import (
    KIND_BACKGROUND,
    KIND_SUBJECT,
    LANE_WIDTH,
)


def make_config(lengths=(1000.0, 1000.0), lanes=2, rng=(-150.0, 150.0)):
    names = [f"L{i+1}" for i in range(len(lengths))]
    links = tuple(
        Link(id=n, length=l, lane_count=lanes, speed_limit=80.0,
             downstream=names[i + 1] if i + 1 < len(names) else None)
        for i, (n, l) in enumerate(zip(names, lengths))
    )
    net = RoadNetwork(
        links=links,
        entrances=(Entrance(id="E1", link=names[0]),),
        subject_route=tuple(names),
    )
    return ScenarioConfig(
        network=net,
        entrance_inputs={"E1": 0.0},
        behavior={"background": BehaviorSpec(IdmParams(), LaneChangeParams())},
        total_time=10.0,
        warmup_time=1.0,
        time_step=0.1,
        detection_range=rng,
        seed=0,
    )


def default_times(config, rows_per_frame):
    return [config.warmup_time + k * config.time_step for k in range(len(rows_per_frame))]


# added to a placed vehicle's id until every vehicle of the frame is placed,
# so that it cannot collide with an id the engine hands out
PLACED = 1000


def detect_batch(config, frames_per_case, times=None, case_order=None):
    """Hand a detector of a batch of copies of `config` one step per frame,
    each case's vehicles of a frame placed as (vid, kind, link_idx, lane,
    pos, lat, speed) in a simulation of their own, the cases in
    `case_order` (default: in order), each vehicle addressed by ``row`` with
    the id ``add_vehicle`` returned and found again by ``vehicle``; return
    each case's dataset. A frame in which a case has no subject raises
    ``MissingSubjectError``, as the engine does when the detector reports
    the case."""
    detector = VirtualDetector([config] * len(frames_per_case))
    if times is None:
        times = default_times(config, frames_per_case[0])
    if case_order is None:
        case_order = range(len(frames_per_case))
    for k, t in enumerate(times):
        sim = Simulation([config] * len(frames_per_case))
        for c in case_order:
            for vid, kind, link_idx, lane, pos, lat, speed in frames_per_case[c][k]:
                added = sim.add_vehicle(link_idx=link_idx, lane=lane, pos=pos, speed=speed,
                                        kind=kind, case=c)
                r = sim.row(added, c)
                sim.vid[r] = PLACED + vid
                sim.lat[r] = lat
        sim.vid[:] -= PLACED
        for c, frames in enumerate(frames_per_case):
            for vid, kind, link_idx, lane, pos, lat, speed in frames[k]:
                state = sim.vehicle(vid, c)
                assert (state["case"], state["kind"], state["link"], state["lane"]) == (
                    c, kind, link_idx, lane
                )
                assert (state["pos"], state["lat"], state["speed"]) == (pos, lat, speed)
        sim.time = t
        missing = detector(sim)
        if missing:
            raise MissingSubjectError(f"no subject in cases {missing} at t={t}")
    return [virtual_detector_sample(detector, c) for c in range(len(frames_per_case))]


def detect(config, rows_per_frame, times=None):
    """``detect_batch`` of one case."""
    return detect_batch(config, [rows_per_frame], times)[0]


def subject_row(link_idx=0, lane=1, pos=500.0, lat=0.0, speed=15.0):
    return (0, KIND_SUBJECT, link_idx, lane, pos, lat, speed)


def bg(vid, link_idx=0, lane=1, pos=500.0, lat=0.0, speed=20.0):
    return (vid, KIND_BACKGROUND, link_idx, lane, pos, lat, speed)


def test_vehicle_just_beyond_range_is_absent():
    cfg = make_config()
    ds = detect(cfg, [[subject_row(pos=500.0), bg(1, pos=651.0), bg(2, pos=650.0),
                       bg(3, pos=350.0), bg(4, pos=349.0)]])
    ids = [o.vehicle_id for o in ds.records[0].surroundings]
    assert ids == ["2", "3"]  # +151 m and -151 m excluded, +150 m and -150 m included


def test_relative_positions_same_lane_ahead():
    cfg = make_config()
    obs = detect(cfg, [[subject_row(pos=500.0, lane=1), bg(1, pos=530.0, lane=1)]]).records[0].surroundings[0]
    assert obs.rel_longitudinal == pytest.approx(30.0)
    assert obs.rel_lateral == pytest.approx(0.0)


def test_relative_positions_across_links_and_lanes():
    cfg = make_config()
    rec = detect(
        cfg,
        [[subject_row(link_idx=0, pos=950.0, lane=1),
          bg(1, link_idx=1, pos=70.0, lane=2),
          bg(2, link_idx=1, pos=300.0, lane=1)]],
    ).records[0]
    assert len(rec.surroundings) == 1  # vehicle 2 is 350 m ahead along the route
    obs = rec.surroundings[0]
    assert obs.rel_longitudinal == pytest.approx(120.0)
    assert obs.rel_lateral == pytest.approx(LANE_WIDTH)


def test_units_and_subject_fields():
    cfg = make_config()
    rec = detect(cfg, [[subject_row(pos=400.0, speed=15.0), bg(4, pos=460.0, speed=20.0)]]).records[0]
    assert rec.speed_kmh == pytest.approx(54.0)
    assert rec.surroundings[0].speed_kmh == pytest.approx(72.0)
    assert rec.road_name == "L1"
    assert rec.speed_limit_kmh == 80.0
    assert rec.lane_id == 1
    assert rec.longitude == pytest.approx(400.0)  # route arc position


def test_missing_subject_raises():
    cfg = make_config()
    with pytest.raises(MissingSubjectError):
        detect(cfg, [[bg(1, pos=100.0)]])


def test_warmup_frames_excluded():
    cfg = make_config()
    rows = [[subject_row()]] * 3
    ds = detect(cfg, rows, times=[0.5, 1.0, 1.1])  # first step is warm-up
    assert [r.timestamp for r in ds.records] == [1.0, 1.1]


def _brute_force_records(cfg, rows_per_frame):
    rear, front = cfg.detection_range
    offsets = {}
    acc = 0.0
    for i, link in enumerate(cfg.network.route_links()):
        offsets[i] = acc
        acc += link.length
    out = []
    for t, rows in zip(default_times(cfg, rows_per_frame), rows_per_frame):
        if t < cfg.warmup_time:
            continue
        si = [i for i in range(len(rows)) if rows[i][1] == KIND_SUBJECT][0]
        s_arc = offsets[rows[si][2]] + rows[si][4]
        visible = []
        for i, (vid, _kind, link_idx, _lane, pos, _lat, _speed) in enumerate(rows):
            if i == si:
                continue
            rel = offsets[link_idx] + pos - s_arc
            if rear <= rel <= front:
                visible.append((vid, round(float(rel), 9)))
        visible.sort()
        out.append((float(t), tuple(visible)))
    return out


def _random_frames(rng, cfg, n_frames=12, n_veh=6):
    frames = []
    for k in range(n_frames):
        rows = [
            subject_row(link_idx=int(rng.integers(0, 3)), lane=int(rng.integers(1, 4)),
                        pos=float(rng.uniform(0, 300)), speed=float(rng.uniform(0, 25)))
        ]
        for v in range(1, n_veh + 1):
            if rng.random() < 0.2:
                continue
            li = int(rng.integers(0, 3))
            rows.append(
                bg(v, link_idx=li, lane=int(rng.integers(1, 4)),
                   pos=float(rng.uniform(0, cfg.network.route_links()[li].length)),
                   speed=float(rng.uniform(0, 30)))
            )
        frames.append(rows)
    return frames


def _ids_and_offsets(ds):
    return [
        (r.timestamp, tuple(sorted((int(o.vehicle_id), round(o.rel_longitudinal, 9))
                                   for o in r.surroundings)))
        for r in ds.records
    ]


@pytest.mark.parametrize("seed", range(8))
def test_detector_equals_brute_force_filter(seed):
    rng = np.random.default_rng(seed)
    cfg = make_config(lengths=(400.0, 300.0, 500.0), lanes=3, rng=(-120.0, 90.0))
    frames = _random_frames(rng, cfg)
    assert _ids_and_offsets(detect(cfg, frames)) == _brute_force_records(cfg, frames)


@pytest.mark.parametrize("seed, case_order", [
    *(pytest.param(seed, None, id=str(seed)) for seed in range(4)),
    # the rows of the three cases interleave: the detector must tell them
    # apart by their case alone
    *(pytest.param(seed, (2, 1, 0), id=f"{seed}-cases-2-1-0") for seed in range(4)),
])
def test_each_case_of_a_batch_sees_only_its_own_vehicles(seed, case_order):
    # the cases' vehicles share route positions; each case's subject must
    # see its own vehicles only
    rng = np.random.default_rng(seed)
    cfg = make_config(lengths=(400.0, 300.0, 500.0), lanes=3, rng=(-120.0, 90.0))
    frames = [_random_frames(rng, cfg, n_veh=int(rng.integers(0, 8))) for _ in range(3)]
    for ds, case_frames in zip(detect_batch(cfg, frames, case_order=case_order), frames):
        assert _ids_and_offsets(ds) == _brute_force_records(cfg, case_frames)


def test_detector_output_parses_identically():
    cfg = make_config()
    ds = detect(
        cfg,
        [[subject_row(pos=500.0 + 10 * k, lat=0.3),
          bg(3, pos=540.0 + 10 * k, lane=2, speed=22.0)] for k in range(5)],
    )
    back = parse_field_data(io.StringIO(export_detection_csv(ds)), source_kind="simulation")
    assert back.records == ds.records
