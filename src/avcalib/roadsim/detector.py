"""Virtual detector: what each subject vehicle's sensors would report.

``VirtualDetector`` is the sink of a batch (see ``engine.py``). On each live
step it makes one pass over the whole batch: it finds every case's subject
and the rows whose route position is within the detection range of their
case's subject, and keeps those rows whole, the subjects among them. It
tells the cases apart by the rows' ``case`` column alone, whatever the
order of the rows. A running case without a subject on a live step goes
back to the engine, which stops that case with ``MissingSubjectError``.

Every ``PACK_STEPS`` live steps the kept rows are packed into one block of
columns: per record (one subject on one step) its case, time, subject
values and observation count, per observation its case, vehicle values and
position relative to its subject. ``virtual_detector_sample`` cuts one
case out of a finished run into the columns of a validated
``FieldDataset``: positions front-positive / left-positive, speeds in km/h,
each value from the same floating-point operations as when records were
built one at a time.
"""

from __future__ import annotations

import numpy as np

from ..detection import DatasetMeta, FieldDataset, intern_ids
from .engine import (
    FLOAT_COLUMN,
    FLOAT_FIELDS,
    INT_COLUMN,
    INT_FIELDS,
    KIND_SUBJECT,
    LANE_WIDTH,
    heading_rows,
)

MS_TO_KMH = 3.6
# live steps whose kept rows are stored as they came before being packed
# into one block: a 4,000-step run then holds 16 blocks, not 8,000 small
# arrays, which lowers the peak RSS of a merge-fine-step pass by 4.7-4.9 MB
# (about 8%) in paired benchmark runs
PACK_STEPS = 256
_F = [FLOAT_COLUMN[name] for name in ("lat", "speed", "accel", "lat_rate")]
_I = [INT_COLUMN[name] for name in ("case", "vid", "link", "lane")]
_ARC0, _POS, _KIND = FLOAT_COLUMN["arc0"], FLOAT_COLUMN["pos"], INT_COLUMN["kind"]
_RECORD_COLUMNS = 10
# a live step that kept no row
_NO_ROWS = (0.0, np.empty((0, len(FLOAT_FIELDS))), np.empty((0, len(INT_FIELDS)), dtype=np.int64))


class VirtualDetector:
    """Sink that samples every case of a batch through its subject's
    detection window. One detector serves one run of the batch `configs`,
    which share their warm-up and detection range. Each live step's time and
    kept rows go to ``steps``; every ``PACK_STEPS`` steps they are packed
    into one block of ``blocks``."""

    def __init__(self, configs):
        self.configs = list(configs)
        first = self.configs[0]
        self.links = first.network.route_links()
        self.warmup_time = first.warmup_time
        self.rear, self.front = first.detection_range
        self.steps: list[tuple] = []
        self.blocks: list[tuple] = []

    def __call__(self, sim) -> list[int] | None:
        """Keep the rows in the detection window of each subject of `sim`
        on a live step; return the running cases without a subject."""
        t = sim.time
        if t < self.warmup_time:
            return None
        arc = sim.arc0 + sim.pos
        subjects = sim.kind.nonzero()[0]  # the subject is the only nonzero kind
        # each case's subject arc, by case; a stopped case has no rows
        subject_arc = np.empty(len(self.configs))
        lacking = len(subjects) < len(sim.active)
        if lacking:  # a running case has no subject: nan keeps its rows out of every window
            subject_arc.fill(np.nan)
        subject_arc[sim.case[subjects]] = arc[subjects]
        rel = arc - subject_arc[sim.case]
        # detection_range straddles 0, so each subject keeps its own row
        inside = rel >= self.rear
        inside &= rel <= self.front
        rows = inside.nonzero()[0]
        self.steps.append((t, sim.floats.take(rows, axis=0), sim.ints.take(rows, axis=0)))
        if len(self.steps) == PACK_STEPS:
            self.blocks.append(_pack(self.steps, len(self.configs)))
            self.steps = []
        if lacking:
            return [c for c in sim.active if np.isnan(subject_arc[c])]
        return None

    def _columns(self) -> tuple:
        """Every block packed so far and the steps not yet packed, as one
        block."""
        if self.steps or not self.blocks:
            self.blocks.append(_pack(self.steps or [_NO_ROWS], len(self.configs)))
            self.steps = []
        if len(self.blocks) > 1:
            self.blocks = [tuple(np.concatenate(parts) for parts in zip(*self.blocks))]
        return self.blocks[0]


def _pack(steps, n_cases: int) -> tuple:
    """The rows kept on `steps` as columns: per record, its case, time,
    link, lane, route position, lat, speed, accel, lat_rate and number of
    observations (``_RECORD_COLUMNS`` columns); per observation, its case,
    id, lane, position relative to its subject, lat, speed and lat_rate.
    Records and observations are in step order, and within a step in row
    order."""
    counts = np.array([len(floats) for _, floats, _ in steps])
    floats = np.concatenate([floats for _, floats, _ in steps])
    ints = np.concatenate([ints for *_, ints in steps])
    case, vid, link, lane = (ints[:, k] for k in _I)
    lat, speed, accel, lat_rate = (floats[:, k] for k in _F)
    arc = floats[:, _ARC0] + floats[:, _POS]
    # a record is the rows one case kept on one step, its subject among them
    key = np.repeat(np.arange(len(steps)) * n_cases, counts) + case
    is_subject = ints[:, _KIND] == KIND_SUBJECT
    s, o = is_subject.nonzero()[0], (~is_subject).nonzero()[0]
    record = np.empty(len(steps) * n_cases, dtype=np.int64)
    record[key[s]] = np.arange(len(s))
    of = record[key[o]]
    times = np.repeat(np.array([t for t, *_ in steps]), counts)
    return (
        case[s], times[s], link[s], lane[s], arc[s], lat[s], speed[s], accel[s], lat_rate[s],
        np.bincount(of, minlength=len(s)),
        case[o].astype(np.min_scalar_type(n_cases)),
        vid[o], lane[o], arc[o] - arc[s][of], lat[o], speed[o], lat_rate[o],
    )


def virtual_detector_sample(detector: VirtualDetector, case: int) -> FieldDataset:
    """The validated dataset of the windows `detector` took of `case` (an
    index into its configs) during its run."""
    columns = detector._columns()
    records, observations = columns[:_RECORD_COLUMNS], columns[_RECORD_COLUMNS:]
    mine = records[0] == case
    if not mine.all():  # cut the case out; a case that owns every record takes no copy
        seen = observations[0] == case
        records = [column[mine] for column in records]
        observations = [column[seen] for column in observations]
    _case, times, link, lane, arc, lat, speed, accel, lat_rate, counts = records
    _o_case, vid, o_lane, rel, o_lat, o_speed, o_lat_rate = observations
    cfg = detector.configs[case]
    n = len(times)
    codes, names = intern_ids(vid)
    # signed distance from the centerline to the nearest lane marking,
    # positive when that marking is on the left
    half_gap = LANE_WIDTH / 2.0 - np.abs(lat)
    links = [detector.links[k] for k in link.tolist()]
    rear, front = cfg.detection_range
    dataset = FieldDataset(
        timestamp=times,
        road_name=tuple(l.id for l in links),
        speed_limit_kmh=np.array([l.speed_limit for l in links], dtype=float),
        speed_kmh=speed * MS_TO_KMH,
        yaw_rate=lat_rate / np.maximum(speed, 0.1),
        longitude=arc,
        latitude=np.zeros(n),
        acceleration=accel,
        lane_id=lane,
        lane_distance=np.where(lat >= 0.0, half_gap, -half_gap),
        extras=((),) * n,
        obs_offsets=np.concatenate(([0], np.cumsum(counts))),
        obs_vehicle=codes,
        vehicle_ids=names,
        obs_lane=o_lane,
        obs_rel_longitudinal=rel,
        obs_rel_lateral=(o_lane - np.repeat(lane, counts)) * LANE_WIDTH
        + (o_lat - np.repeat(lat, counts)),
        obs_speed_kmh=o_speed * MS_TO_KMH,
        obs_heading_deg=heading_rows(o_lat_rate, o_speed),
        meta=DatasetMeta(
            source="simulation",
            interval=cfg.time_step,
            route="->".join(link.id for link in detector.links),
            detection_range=(float(rear), float(front)),
        ),
    )
    dataset.validate()
    return dataset
