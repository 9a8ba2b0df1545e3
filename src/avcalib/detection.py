"""Detection data: the common currency between field data and the embedded
simulator's virtual detector.

A ``FieldDataset`` stores columns. Per record (what the subject observes at
one timestamp): one array per field of the subject's state, with road names
and extra CSV columns as tuples. Per observation (one surrounding vehicle in
the detection window): flat arrays that ``obs_offsets`` cuts into records,
record i owning ``obs_offsets[i]:obs_offsets[i + 1]``. Vehicle ids are codes
into the sorted ``vehicle_ids``, so code order is string order. Values keep
the CSV schema's units (speeds in km/h), so a file re-exports losslessly.

``records`` builds a read-only view of ``DetectionRecord`` and
``SurroundingObs`` objects, which the tests and the benchmark's span counts
read; nothing in the package does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

KMH_TO_MS = 1.0 / 3.6

SUBJECT = "subject"

# Canonical CSV header (long format: one row per timestamp and surrounding
# vehicle; a timestamp with no surrounding vehicle emits one row with the
# surrounding columns left empty).
DETECTION_COLUMNS = (
    "Timestamp",
    "Road name",
    "Speed limit",
    "Speed",
    "Yaw rate",
    "Longitude",
    "Latitude",
    "Acceleration",
    "Lane ID",
    "Lane distance",
    "Vehicle ID",
    "Surrounding vehicle's Lane ID",
    "Relative longitudinal position",
    "Relative lateral position",
    "Absolute velocity",
    "Vehicle heading",
)

SURROUNDING_COLUMNS = DETECTION_COLUMNS[10:]

# the float columns of a record and of an observation, in CSV order
RECORD_FLOATS = (
    "speed_limit_kmh", "speed_kmh", "yaw_rate", "longitude", "latitude", "acceleration",
)
OBS_FLOATS = ("rel_longitudinal", "rel_lateral", "speed_kmh", "heading_deg")


@dataclass(slots=True)
class SurroundingObs:
    """One surrounding vehicle as seen from the subject.

    rel_longitudinal is positive ahead of the subject, rel_lateral positive
    to its left; speed_kmh is the absolute speed, heading_deg the angle to
    the road direction.
    """

    vehicle_id: str
    lane_id: int
    rel_longitudinal: float
    rel_lateral: float
    speed_kmh: float
    heading_deg: float = 0.0

    @property
    def speed_ms(self) -> float:
        return self.speed_kmh * KMH_TO_MS


@dataclass(slots=True)
class DetectionRecord:
    timestamp: float
    road_name: str
    speed_limit_kmh: float
    speed_kmh: float
    yaw_rate: float
    longitude: float
    latitude: float
    acceleration: float
    lane_id: int
    lane_distance: float
    surroundings: tuple[SurroundingObs, ...] = ()
    extras: tuple[tuple[str, str], ...] = ()

    @property
    def speed_ms(self) -> float:
        return self.speed_kmh * KMH_TO_MS

    @property
    def speed_limit_ms(self) -> float:
        return self.speed_limit_kmh * KMH_TO_MS


@dataclass(frozen=True)
class DatasetMeta:
    source: str = "field"
    interval: float = 0.1
    route: str = ""
    detection_range: tuple[float, float] = (-150.0, 150.0)
    preprocessed: bool = False
    n_interpolated: int = 0


def intern_ids(ids) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of vehicle ids (str or int) into their sorted distinct strings."""
    unique, codes = np.unique(np.asarray(ids), return_inverse=True)
    names = [str(x) for x in unique.tolist()]
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return rank[codes.reshape(-1)], tuple(names[i] for i in order)


@dataclass(frozen=True, eq=False)
class FieldDataset:
    """Detection records as columns (see the module docstring) plus meta."""

    timestamp: np.ndarray
    road_name: tuple[str, ...]
    speed_limit_kmh: np.ndarray
    speed_kmh: np.ndarray
    yaw_rate: np.ndarray
    longitude: np.ndarray
    latitude: np.ndarray
    acceleration: np.ndarray
    lane_id: np.ndarray
    lane_distance: np.ndarray
    extras: tuple[tuple[tuple[str, str], ...], ...]
    obs_offsets: np.ndarray
    obs_vehicle: np.ndarray
    vehicle_ids: tuple[str, ...]
    obs_lane: np.ndarray
    obs_rel_longitudinal: np.ndarray
    obs_rel_lateral: np.ndarray
    obs_speed_kmh: np.ndarray
    obs_heading_deg: np.ndarray
    meta: DatasetMeta = field(default_factory=DatasetMeta)

    def __len__(self) -> int:
        return len(self.timestamp)

    @cached_property
    def obs_record(self) -> np.ndarray:
        """The record index of each observation."""
        return np.repeat(np.arange(len(self)), np.diff(self.obs_offsets))

    @cached_property
    def records(self) -> tuple[DetectionRecord, ...]:
        """One record object per record, built on first use."""
        floats = [getattr(self, f).tolist() for f in RECORD_FLOATS]
        obs = list(zip(
            [self.vehicle_ids[c] for c in self.obs_vehicle.tolist()],
            self.obs_lane.tolist(),
            *(getattr(self, "obs_" + f).tolist() for f in OBS_FLOATS),
        ))
        cuts = self.obs_offsets.tolist()
        return tuple(
            DetectionRecord(
                t, road, *fs, lane, dist,
                tuple(SurroundingObs(*o) for o in obs[cuts[i]:cuts[i + 1]]), extras,
            )
            for i, (t, road, *fs, lane, dist, extras) in enumerate(zip(
                self.timestamp.tolist(), self.road_name, *floats, self.lane_id.tolist(),
                self.lane_distance.tolist(), self.extras,
            ))
        )

    @property
    def duration(self) -> float:
        if len(self) < 2:
            return 0.0
        return self.timestamp[-1].item() - self.timestamp[0].item()

    def validate(self) -> None:
        """Raise ValueError at the first record, in order, whose timestamp
        falls below the one before it or that lists an empty or a repeated
        surrounding vehicle id."""
        t, codes = self.timestamp, self.obs_vehicle
        keys = self.obs_record * len(self.vehicle_ids) + codes
        if not ((t[1:] < t[:-1]).any() or self.vehicle_ids[:1] == ("",)
                or len(np.unique(keys)) < len(keys)):
            return
        cuts, prev = self.obs_offsets.tolist(), None
        for i, ts in enumerate(t.tolist()):
            if prev is not None and ts < prev:
                raise ValueError(f"timestamps must be non-decreasing; {ts} after {prev}")
            prev, seen = ts, set()
            for vid in [self.vehicle_ids[c] for c in codes[cuts[i]:cuts[i + 1]].tolist()]:
                if not vid:
                    raise ValueError(f"empty surrounding vehicle id at t={ts}")
                if vid in seen:
                    raise ValueError(f"surrounding vehicle {vid!r} listed twice at t={ts}")
                seen.add(vid)

    def with_meta(self, **changes) -> "FieldDataset":
        return replace(self, meta=replace(self.meta, **changes))


def infer_interval(timestamps) -> float:
    """Median spacing of a timestamp sequence; 0.1 when undeterminable."""
    if len(timestamps) < 2:
        return 0.1
    diffs = sorted(
        b - a for a, b in zip(timestamps[:-1], timestamps[1:]) if b > a
    )
    if not diffs:
        return 0.1
    return diffs[len(diffs) // 2]
