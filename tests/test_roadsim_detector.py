import io

import numpy as np
import pytest

from avcalib.fielddata import parse_field_data, export_detection_csv
from avcalib.roadsim import (
    BehaviorSpec,
    CaseView,
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


def detect(config, rows_per_frame, times=None):
    """Hand a detector one step per entry of rows_per_frame, each a list of
    vehicles placed as (vid, kind, link_idx, lane, pos, lat, speed) in a
    simulation of their own, and return its dataset."""
    detector = VirtualDetector(config)
    if times is None:
        times = default_times(config, rows_per_frame)
    for t, rows in zip(times, rows_per_frame):
        sim = Simulation([config])
        for vid, kind, link_idx, lane, pos, lat, speed in rows:
            sim.add_vehicle(link_idx=link_idx, lane=lane, pos=pos, speed=speed, kind=kind)
            sim.vid[-1] = vid  # the newest vehicle is the last row
            sim.lat[-1] = lat
        sim.time = t
        detector(CaseView(sim, 0))
    return virtual_detector_sample(detector)


def subject_row(link_idx=0, lane=1, pos=500.0, lat=0.0, speed=15.0):
    return (0, KIND_SUBJECT, link_idx, lane, pos, lat, speed)


def bg(vid, link_idx=0, lane=1, pos=500.0, lat=0.0, speed=20.0):
    return (vid, KIND_BACKGROUND, link_idx, lane, pos, lat, speed)


def test_vehicle_just_beyond_range_is_absent():
    cfg = make_config()
    ds = detect(cfg, [[subject_row(pos=500.0), bg(1, pos=651.0), bg(2, pos=650.0)]])
    ids = [o.vehicle_id for o in ds.records[0].surroundings]
    assert ids == ["2"]  # +151 m excluded, +150 m included


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


@pytest.mark.parametrize("seed", range(8))
def test_detector_equals_brute_force_filter(seed):
    rng = np.random.default_rng(seed)
    cfg = make_config(lengths=(400.0, 300.0, 500.0), lanes=3, rng=(-120.0, 90.0))
    frames = []
    n_veh = 6
    for k in range(12):
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
    ds = detect(cfg, frames)
    got = [
        (r.timestamp, tuple(sorted((int(o.vehicle_id), round(o.rel_longitudinal, 9))
                                   for o in r.surroundings)))
        for r in ds.records
    ]
    assert got == _brute_force_records(cfg, frames)


def test_detector_output_parses_identically():
    cfg = make_config()
    ds = detect(
        cfg,
        [[subject_row(pos=500.0 + 10 * k, lat=0.3),
          bg(3, pos=540.0 + 10 * k, lane=2, speed=22.0)] for k in range(5)],
    )
    back = parse_field_data(io.StringIO(export_detection_csv(ds)), source_kind="simulation")
    assert back.records == ds.records
