"""Shared builders for detection records and tiny scenarios."""

import numpy as np
import pytest

from avcalib.detection import (
    OBS_FLOATS,
    RECORD_FLOATS,
    DatasetMeta,
    DetectionRecord,
    FieldDataset,
    SurroundingObs,
    intern_ids,
)
from avcalib.roadsim import (
    BehaviorSpec,
    Entrance,
    IdmParams,
    LaneChangeParams,
    Link,
    RoadNetwork,
    ScenarioConfig,
)
from avcalib.roadsim.network import KMH

MS = 3.6  # m/s -> km/h


def surr(vid, lane, rel_long, rel_lat=0.0, speed_ms=15.0, heading=0.0):
    return SurroundingObs(
        vehicle_id=str(vid),
        lane_id=lane,
        rel_longitudinal=float(rel_long),
        rel_lateral=float(rel_lat),
        speed_kmh=speed_ms * MS,
        heading_deg=heading,
    )


def rec(t, lane=1, speed_ms=15.0, surroundings=(), road="R1", accel=0.0,
        lane_distance=0.5, limit_kmh=80.0):
    return DetectionRecord(
        timestamp=float(t),
        road_name=road,
        speed_limit_kmh=limit_kmh,
        speed_kmh=speed_ms * MS,
        yaw_rate=0.0,
        longitude=0.0,
        latitude=0.0,
        acceleration=accel,
        lane_id=lane,
        lane_distance=lane_distance,
        surroundings=tuple(surroundings),
    )


def dataset(records, interval=0.1, detection_range=(-150.0, 150.0), source="field"):
    """The validated columns of `records`: the inverse of
    ``FieldDataset.records``."""
    records = list(records)
    obs = [o for r in records for o in r.surroundings]
    codes, names = intern_ids([o.vehicle_id for o in obs])
    ds = FieldDataset(
        timestamp=np.array([r.timestamp for r in records], dtype=float),
        road_name=tuple(r.road_name for r in records),
        **{f: np.array([getattr(r, f) for r in records], dtype=float) for f in RECORD_FLOATS},
        lane_id=np.array([r.lane_id for r in records], dtype=np.int64),
        lane_distance=np.array([r.lane_distance for r in records], dtype=float),
        extras=tuple(r.extras for r in records),
        obs_offsets=np.cumsum([0] + [len(r.surroundings) for r in records]),
        obs_vehicle=codes,
        vehicle_ids=names,
        obs_lane=np.array([o.lane_id for o in obs], dtype=np.int64),
        **{"obs_" + f: np.array([getattr(o, f) for o in obs], dtype=float) for f in OBS_FLOATS},
        meta=DatasetMeta(source=source, interval=interval, detection_range=detection_range),
    )
    ds.validate()
    return ds


@pytest.fixture
def micro_scenario():
    """Single-lane link with one entrance; the slow subject collects a
    platoon, so car-following headways are plentiful and cheap to simulate."""
    net = RoadNetwork(
        links=(Link(id="A", length=900.0, lane_count=1, speed_limit=60.0),),
        entrances=(Entrance(id="E1", link="A", entry_speed=45.0),),
        subject_route=("A",),
    )
    behavior = {
        "background": BehaviorSpec(IdmParams(v0=15.0), LaneChangeParams()),
        "subject": BehaviorSpec(IdmParams(v0=30.0 * KMH), LaneChangeParams()),
    }
    return ScenarioConfig(
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
