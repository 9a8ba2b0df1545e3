"""Detection-data records: the common currency between field data and the
embedded simulator's virtual detector.

One record holds everything the subject vehicle observes at one timestamp:
its own state plus every surrounding vehicle inside the detection window.
Values are stored in the units the CSV schema uses (speeds in km/h);
converted m/s views are exposed as properties so parsing and re-exporting a
file is lossless.

``SurroundingObs`` and ``DetectionRecord`` are slotted, not frozen: the
virtual detector builds one per vehicle and step, and a frozen dataclass
costs several times as much to build. Nothing mutates or hashes them; they
compare by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
class FieldDataset:
    """Ordered detection records plus provenance metadata."""

    records: tuple[DetectionRecord, ...]
    meta: DatasetMeta = field(default_factory=DatasetMeta)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def duration(self) -> float:
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].timestamp - self.records[0].timestamp

    def validate(self) -> None:
        prev = None
        for rec in self.records:
            if prev is not None and rec.timestamp < prev:
                raise ValueError(
                    f"timestamps must be non-decreasing; {rec.timestamp} after {prev}"
                )
            prev = rec.timestamp
            seen = set()
            for obs in rec.surroundings:
                vid = obs.vehicle_id
                if not vid:
                    raise ValueError(f"empty surrounding vehicle id at t={rec.timestamp}")
                if vid in seen:
                    raise ValueError(
                        f"surrounding vehicle {vid!r} listed twice at t={rec.timestamp}"
                    )
                seen.add(vid)

    def with_meta(self, **changes) -> "FieldDataset":
        return FieldDataset(records=self.records, meta=replace(self.meta, **changes))


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
