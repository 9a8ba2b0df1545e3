"""Golden trajectories: the simulator's output on the bundled scenarios is
pinned by a sha256 over every frame and every lane change, so a refactor of
the engine or of the car-following models must reproduce it bit for bit.

The non-IDM families run a shortened showcase corridor with that family as
the background model; the subject keeps its IDM agent. ``showcase-fine-step``
runs the showcase corridor at the paper's 0.1 s step (the others use 0.2 s).
``lane-drop`` narrows the showcase corridor (seed 2) from three lanes to
two after its second link, so vehicles follow leaders across the drop and
the ones left in the third lane are moved into the second;
``lane-drop-pushback`` narrows the seed-0 corridor at a higher inflow, where
vehicles overlap and are pushed back (every other golden run is
collision-free). ``showcase-w99-limits`` gives the W99 corridor a different
speed limit on each link and 6 m vehicles: W99 has no desired speed of its
own, so each vehicle's desired speed follows the limit of the link it is on.

The detection digests pin the virtual detector's output on five of those
runs: a sha256 over the ``repr`` of every detection record and of the
dataset's meta, so a numpy scalar reaching a record fails them too.

The engine keeps its state in arrays and hands the detector and the
recorded frames their values through ``tolist`` and fixed dtypes: a test
checks that every record and frame value has exactly its type, so a numpy
scalar reaching a record fails it.
"""

import functools
import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from avcalib.demo import recovery_truth_scenario, showcase_scenario
from avcalib.roadsim import (
    BehaviorSpec,
    FvdParams,
    GippsParams,
    KraussParams,
    Simulation,
    VirtualDetector,
    W99Params,
    record_frame,
    run_scenario,
    virtual_detector_sample,
)
from avcalib.roadsim.engine import LC_DURATION, SUBJECT_VID
from avcalib.roadsim.models import MODEL_CLASSES

BACKGROUND_MODELS = {
    "gipps": GippsParams(),
    "fvd": FvdParams(),
    "krauss": KraussParams(),
    "w99": W99Params(),
}

GOLDEN = {
    "recovery": "da7aef06fc1b414276a1e824cc4613bc0610d64eaa9afa6e8fea87d29941026d",
    "showcase": "586fc6845ec5f81db6efc744859a8218c445f1d1080015ef20da7982a2266ea1",
    "showcase-gipps": "0a2d9efc1d2eff018be2f2f8afc4d4fd27731666b2600c8574e358e6c78be740",
    "showcase-fvd": "c1a1c399eba8356abcb1e63cc7d52942ad51935d5a9ea2ee0916ecc0f91c440a",
    "showcase-krauss": "fb46f4bd8d4cb311ea717f0a927b71728b4a62405aa1df146b733ab5e29ffa17",
    "showcase-w99": "442bf420ac7aa99e8dd280c944f6bb7a87fcf80af0450a16b658dc47f44a1597",
    "showcase-w99-limits": "bd337fae430642950452af39b477a74e96cd2cbde90a9908df8977f72b770b8c",
    "showcase-fine-step": "b2f84d8a2802752ad7048a0eb7fe2476c91115935625e204b25da121830a9b07",
    "lane-drop": "43e11ed94540b8f689d059dd3dcae59a7e7cfa548941d892b50b6721de81e324",
    "lane-drop-pushback": "057909f8b0d55bfeaf884ff6d1dd319db64299350672d5156a38482916a5d1ac",
}

COLLIDING = {"lane-drop-pushback"}

DETECTION_GOLDEN = {
    "recovery": "35d95a8ba45c30cdfbe409dc28f6c577e0a109432d67c262b7384a0ccdb2c1f0",
    "showcase": "2398a7cc83255721e1866ab2a88fb730fbe8a4c98d8e231625b236ffe3c17e80",
    "showcase-fine-step": "3bc749cc99703b7f922dc41082f8e7441901fea29fa50d8213d101a4900c8621",
    "lane-drop": "6d2924875fbfe18fec6c31f9f22d6be3878b8ddb049ded97b04bb9b8fd118361",
    "lane-drop-pushback": "29462c6e3de6ba9bae141f0fc4bc1b3d19cc9a414484d8ae6f2cebb0b9fb5d76",
}


def _lane_drop(sc, inputs):
    lanes = {"L1": 3, "L2": 3, "L3": 2, "L4": 2}
    links = tuple(replace(link, lane_count=lanes[link.id]) for link in sc.network.links)
    return replace(sc, network=replace(sc.network, links=links), entrance_inputs=inputs,
                   total_time=300.0)


def _scenario(name):
    if name == "recovery":
        return recovery_truth_scenario(0)
    sc = showcase_scenario(0)
    if name == "showcase":
        return sc
    if name == "lane-drop":
        sc = showcase_scenario(2)
        return _lane_drop(sc, sc.entrance_inputs)
    if name == "lane-drop-pushback":
        return _lane_drop(sc, {"E1": 1800.0, "E2": 600.0, "E3": 400.0, "E4": 450.0})
    if name == "showcase-fine-step":
        return replace(sc, time_step=0.1, total_time=250.0)
    if name == "showcase-w99-limits":
        limits = {"L1": 80.0, "L2": 60.0, "L3": 100.0, "L4": 70.0}
        links = tuple(replace(link, speed_limit=limits[link.id]) for link in sc.network.links)
        return replace(_scenario("showcase-w99"), network=replace(sc.network, links=links),
                       vehicle_length=6.0)
    model = BACKGROUND_MODELS[name.split("-", 1)[1]]
    behavior = dict(sc.behavior)
    behavior["background"] = BehaviorSpec(model, sc.behavior["background"].lane_change)
    return replace(sc, behavior=behavior, total_time=300.0)


@functools.lru_cache(maxsize=None)
def _run(name):
    """The recorded log and the detector's dataset of one run."""
    sc = _scenario(name)
    detector = VirtualDetector([sc])

    def record_and_detect(sim):
        record_frame(sim)
        return detector(sim)

    log = run_scenario(sc, record_and_detect)
    return sc, log, virtual_detector_sample(detector, 0)


def trajectory_digest(log) -> str:
    h = hashlib.sha256()
    for f in log.frames:
        for arr in (f.ids, f.lanes, f.link_idx, f.pos, f.lat, f.speed, f.accel, f.heading):
            h.update(np.ascontiguousarray(arr).tobytes())
    for lc in log.lane_changes:
        h.update(repr((lc.time, lc.vehicle_id, lc.link, lc.from_lane, lc.to_lane)).encode())
    return h.hexdigest()


def detection_digest(dataset) -> str:
    h = hashlib.sha256()
    for record in dataset.records:
        h.update(repr(record).encode())
    h.update(repr(dataset.meta).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DETECTION_GOLDEN))
def test_detection_matches_golden_hash(name):
    _sc, _log, dataset = _run(name)
    assert detection_digest(dataset) == DETECTION_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_matches_golden_hash(name):
    _sc, log, _dataset = _run(name)
    assert trajectory_digest(log) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_is_feasible_and_keeps_lanes(name):
    sc, log, _dataset = _run(name)
    assert log.feasible
    lane_counts = np.asarray([l.lane_count for l in sc.network.route_links()])
    for f in log.frames:
        assert np.all(f.lanes >= 1)
        assert np.all(f.lanes <= lane_counts[f.link_idx])


@pytest.mark.parametrize("name", sorted(set(GOLDEN) - COLLIDING))
def test_golden_run_has_no_collisions(name):
    _sc, log, _dataset = _run(name)
    assert log.collisions == []


@pytest.mark.parametrize("name", sorted(COLLIDING))
def test_colliding_golden_run_pushes_vehicles_back(name):
    _sc, log, _dataset = _run(name)
    assert len(log.collisions) >= 5


def test_lane_drop_golden_run_moves_vehicles_out_of_the_lost_lane():
    # vehicles still in lane 3 when they leave L2 continue in lane 2 of L3
    _sc, log, _dataset = _run("lane-drop")
    last = {}
    moved = 0
    for f in log.frames:
        for vid, link_idx, lane in zip(f.ids.tolist(), f.link_idx.tolist(), f.lanes.tolist()):
            if last.get(vid) == (1, 3) and (link_idx, lane) == (2, 2):
                moved += 1
            last[vid] = (link_idx, lane)
    assert moved > 0


@pytest.mark.parametrize("name", ["recovery", "showcase-fine-step"])
def test_step_counters_match_the_recorded_frames(name):
    sc, log, dataset = _run(name)
    live = [f for f in log.frames if f.time >= sc.warmup_time]
    assert log.steps == len(log.frames)
    assert log.vehicle_steps == sum(len(f) for f in log.frames)
    assert log.live_steps == len(live) == len(dataset.records)
    assert log.live_vehicle_steps == sum(len(f) for f in live)
    # and a run that records nothing counts the same
    bare = run_scenario(sc, lambda sim: None)
    assert bare.frames == []
    assert (bare.steps, bare.vehicle_steps, bare.live_steps, bare.live_vehicle_steps) == (
        log.steps, log.vehicle_steps, log.live_steps, log.live_vehicle_steps
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_heading_and_yaw_point_the_way_of_each_lane_change(name):
    # the lane index flips halfway through a change and lat is then measured
    # from the new lane; the heading must not jump the other way there
    _sc, log, dataset = _run(name)
    yaw_at = {r.timestamp: r.yaw_rate for r in dataset.records}
    starts = {}
    for lc in log.lane_changes:
        starts.setdefault(lc.time, []).append(lc)
    changing = {}  # vehicle id -> (end of its lane change, its direction)
    checked = 0
    for f in log.frames:
        changing = {vid: w for vid, w in changing.items() if f.time <= w[0]}
        for i, vid in enumerate(f.ids.tolist()):
            if vid in changing:
                sign = changing[vid][1]
                assert f.heading[i] * sign >= 0.0, (vid, f.time, f.heading[i])
                checked += f.heading[i] != 0.0
                if vid == SUBJECT_VID and f.time in yaw_at:
                    assert yaw_at[f.time] * sign >= 0.0, (f.time, yaw_at[f.time])
        for lc in starts.get(f.time, ()):
            changing[lc.vehicle_id] = (f.time + LC_DURATION, 1.0 if lc.to_lane > lc.from_lane else -1.0)
    assert checked > 0


FRAME_DTYPES = {
    "ids": np.int32, "kinds": np.int8, "link_idx": np.int16, "lanes": np.int16,
    "pos": np.float64, "lat": np.float64, "speed": np.float64, "accel": np.float64,
    "heading": np.float64, "length": np.float64,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vehicle_state_and_route_offsets_are_plain_floats(name):
    # every frame and detection-record value has exactly the type it had
    # when the state was Python objects: plain floats and ints, arrays of
    # fixed dtypes, never a numpy scalar
    sc, log, dataset = _run(name)
    offsets = Simulation([sc]).offsets
    assert [type(x) for x in offsets] == [float] * len(offsets)
    assert {type(f.time) for f in log.frames} == {float}
    for field, dtype in FRAME_DTYPES.items():
        assert {getattr(f, field).dtype for f in log.frames} == {np.dtype(dtype)}, field
    record_types = [float, str, float, float, float, float, float, float, int, float, tuple, tuple]
    obs_types = [str, int, float, float, float, float]
    seen = 0
    for record in dataset.records:
        assert [type(getattr(record, f.name)) for f in fields(record)] == record_types
        for obs in record.surroundings:
            assert [type(getattr(obs, f.name)) for f in fields(obs)] == obs_types
            seen += 1
    assert seen


def test_side_scan_skip_changes_no_trajectory(monkeypatch):
    # with an infinite bound no lane-change evaluation can skip the
    # neighbour-lane scan: the trajectories must not move, and the scans
    # must get more frequent. The engine reads every family's bound from
    # the free term of its accel_rows, so that term is made infinite
    names = ("showcase", "showcase-w99", "showcase-w99-limits", "showcase-gipps",
             "showcase-fvd", "showcase-krauss")
    skipping = {}
    for name in names:
        log = run_scenario(_scenario(name))
        assert trajectory_digest(log) == GOLDEN[name]
        assert 0 < log.lc_scans < log.lc_evaluations
        skipping[name] = log

    def unbounded(accel_rows):
        def rows(*args):
            a, free = accel_rows(*args)
            return a, np.full_like(free, math.inf)
        return staticmethod(rows)

    for cls in MODEL_CLASSES.values():
        monkeypatch.setattr(cls, "accel_rows", unbounded(cls.accel_rows))
    for name in names:
        log = run_scenario(_scenario(name))
        assert trajectory_digest(log) == GOLDEN[name]
        assert log.lc_evaluations == skipping[name].lc_evaluations
        assert log.lc_scans == log.lc_evaluations > skipping[name].lc_scans
