"""Golden trajectories: the simulator's output on the bundled scenarios is
pinned by a sha256 over every frame and every lane change, so a refactor of
the engine or of the car-following models must reproduce it bit for bit.

The non-IDM families run a shortened showcase corridor with that family as
the background model; the subject keeps its IDM agent. ``showcase-fine-step``
runs the showcase corridor at the paper's 0.1 s step (the others use 0.2 s).

The detection digests pin the virtual detector's output on three of those
runs: a sha256 over the ``repr`` of every detection record and of the
dataset's meta, so a numpy scalar reaching a record fails them too.
"""

import functools
import hashlib
import math
from dataclasses import replace

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
from avcalib.roadsim.models import MODEL_CLASSES

BACKGROUND_MODELS = {
    "gipps": GippsParams(),
    "fvd": FvdParams(),
    "krauss": KraussParams(),
    "w99": W99Params(),
}

GOLDEN = {
    "recovery": "4dfb85cd58d9c84080bf995500b5aafdaa65ea8af8daa85ca2f1cedee3360416",
    "showcase": "f50af8c31c78239ea816bee562fec5b62ee02210504633ddef6c6e370e5d97b5",
    "showcase-gipps": "20a6ce7bce480e20e12536187115d497e63c763f743ee40b9bca997799a47243",
    "showcase-fvd": "22752efb05d410d5ba2ca9e05b0959aa51d4a18bc421a9e17ebe7f20592e2906",
    "showcase-krauss": "177c3359b1dc8cb525f0f30c065b141393a991afa7320e21c7c2d1071d28c6ad",
    "showcase-w99": "bbf325071f74191f8bc4e2db2cfa618d904b66c0cd0e882cf7c69c42272b9e8a",
    "showcase-fine-step": "fef9f3e887050037c44a52f84a1a71cdd435175ccf0c738b6c32c8228da407d4",
}

DETECTION_GOLDEN = {
    "recovery": "35d95a8ba45c30cdfbe409dc28f6c577e0a109432d67c262b7384a0ccdb2c1f0",
    "showcase": "dd24f49859e22ed2215086877c4247c4bb6ed7d8f11faee39af52b93ad6adfbf",
    "showcase-fine-step": "7b3286316cab87c57c69dbf6f9a8f20ef3242f1279c938fe9f75160b1de36468",
}


def _scenario(name):
    if name == "recovery":
        return recovery_truth_scenario(0)
    sc = showcase_scenario(0)
    if name == "showcase":
        return sc
    if name == "showcase-fine-step":
        return replace(sc, time_step=0.1, total_time=250.0)
    model = BACKGROUND_MODELS[name.split("-", 1)[1]]
    behavior = dict(sc.behavior)
    behavior["background"] = BehaviorSpec(model, sc.behavior["background"].lane_change)
    return replace(sc, behavior=behavior, total_time=300.0)


@functools.lru_cache(maxsize=None)
def _run(name):
    """The recorded log and the detector's dataset of one run."""
    sc = _scenario(name)
    detector = VirtualDetector(sc)

    def record_and_detect(sim):
        record_frame(sim)
        detector(sim)

    log = run_scenario(sc, record_and_detect)
    return sc, log, virtual_detector_sample(detector)


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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_has_no_collisions(name):
    _sc, log, _dataset = _run(name)
    assert log.collisions == []


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


def test_side_scan_skip_changes_no_trajectory(monkeypatch):
    # with an infinite max_free_accel no lane-change evaluation can skip the
    # neighbour-lane scan: the trajectories must not move, and the scans
    # (insertions also look for followers) must get more frequent
    scans = []
    follower_in_lane = Simulation._follower_in_lane

    def counted(self, *args, **kwargs):
        scans.append(1)
        return follower_in_lane(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "_follower_in_lane", counted)
    names = ("showcase", "showcase-w99")
    skipping = {}
    for name in names:
        scans.clear()
        assert trajectory_digest(run_scenario(_scenario(name))) == GOLDEN[name]
        skipping[name] = len(scans)
    for cls in MODEL_CLASSES.values():
        monkeypatch.setattr(cls, "max_free_accel", lambda self, v, v_des, dt: math.inf)
    for name in names:
        scans.clear()
        assert trajectory_digest(run_scenario(_scenario(name))) == GOLDEN[name]
        assert len(scans) > skipping[name]
