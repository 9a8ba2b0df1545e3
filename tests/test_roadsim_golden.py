"""Golden trajectories: the simulator's output on the bundled scenarios is
pinned by a sha256 over every frame and every lane change, so a refactor of
the engine or of the car-following models must reproduce it bit for bit.

The non-IDM families run a shortened showcase corridor with that family as
the background model; the subject keeps its IDM agent. ``showcase-fine-step``
runs the showcase corridor at the paper's 0.1 s step (the others use 0.2 s).
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
    W99Params,
    run_scenario,
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
    sc = _scenario(name)
    return sc, run_scenario(sc)


def trajectory_digest(log) -> str:
    h = hashlib.sha256()
    for f in log.frames:
        for arr in (f.ids, f.lanes, f.link_idx, f.pos, f.lat, f.speed, f.accel, f.heading):
            h.update(np.ascontiguousarray(arr).tobytes())
    for lc in log.lane_changes:
        h.update(repr((lc.time, lc.vehicle_id, lc.link, lc.from_lane, lc.to_lane)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_matches_golden_hash(name):
    _sc, log = _run(name)
    assert trajectory_digest(log) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_is_feasible_and_keeps_lanes(name):
    sc, log = _run(name)
    assert log.feasible
    lane_counts = np.asarray([l.lane_count for l in sc.network.route_links()])
    for f in log.frames:
        assert np.all(f.lanes >= 1)
        assert np.all(f.lanes <= lane_counts[f.link_idx])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_has_no_collisions(name):
    _sc, log = _run(name)
    assert log.collisions == []


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
