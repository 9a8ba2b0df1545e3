"""Parsing and event extraction for detection data.

Works identically on real field data and on simulator output, since both
arrive in the same CSV schema. Extraction rules the source material leaves
open are configurable with conservative defaults: car-following episodes
require a same-lane leader within 120 m for at least 5 s, lane changes must
persist 1 s to debounce sensor flicker, and cut-ins only count within 50 m
ahead of the subject.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path

from .detection import (
    SUBJECT,
    SURROUNDING_COLUMNS,
    DETECTION_COLUMNS,
    DatasetMeta,
    DetectionRecord,
    FieldDataset,
    SurroundingObs,
    infer_interval,
)


class SchemaError(ValueError):
    """The CSV header is missing a mandatory column."""


class RowError(ValueError):
    """A CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# ---------------------------------------------------------------------------
# parsing / export


def _open_text(source):
    if isinstance(source, (str, Path)):
        return open(source, "r", newline=""), True
    return source, False


def parse_field_data(
    source,
    source_kind: str = "field",
    detection_range: tuple[float, float] = (-150.0, 150.0),
    route: str = "",
) -> FieldDataset:
    """Parse Table-1-schema CSV (long format) into a FieldDataset.

    `source` is a path or an open text stream. Unknown columns are kept as
    opaque strings on each record. Absolute position columns are parsed as
    plain floats; their angle unit does not matter downstream because no
    measure consumes them.
    """
    stream, owned = _open_text(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: no header row")
        header = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(header)}
        for name in DETECTION_COLUMNS:
            if name not in col:
                raise SchemaError(f"missing mandatory column: {name!r}")
        extra_cols = [h for h in header if h not in DETECTION_COLUMNS]

        def fget(row, name, line):
            raw = row[col[name]].strip()
            try:
                return float(raw)
            except ValueError:
                raise RowError(line, f"column {name!r}: cannot parse number from {raw!r}")

        def iget(row, name, line):
            return int(round(fget(row, name, line)))

        records: list[DetectionRecord] = []
        # the fields of the record being read, and its surroundings, one per
        # row; the record is built once, when the timestamp changes
        head: dict | None = None
        surroundings: list[SurroundingObs] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(header):
                raise RowError(line_no, f"expected {len(header)} fields, got {len(row)}")
            t = fget(row, "Timestamp", line_no)
            if head is None or t != head["timestamp"]:
                if head is not None:
                    records.append(DetectionRecord(**head, surroundings=tuple(surroundings)))
                    surroundings = []
                extras = tuple(
                    (name, row[col[name]]) for name in extra_cols
                )
                head = dict(
                    timestamp=t,
                    road_name=row[col["Road name"]].strip(),
                    speed_limit_kmh=fget(row, "Speed limit", line_no),
                    speed_kmh=fget(row, "Speed", line_no),
                    yaw_rate=fget(row, "Yaw rate", line_no),
                    longitude=fget(row, "Longitude", line_no),
                    latitude=fget(row, "Latitude", line_no),
                    acceleration=fget(row, "Acceleration", line_no),
                    lane_id=iget(row, "Lane ID", line_no),
                    lane_distance=fget(row, "Lane distance", line_no),
                    extras=extras,
                )
            vid = row[col["Vehicle ID"]].strip()
            if vid:
                surroundings.append(SurroundingObs(
                    vehicle_id=vid,
                    lane_id=iget(row, "Surrounding vehicle's Lane ID", line_no),
                    rel_longitudinal=fget(row, "Relative longitudinal position", line_no),
                    rel_lateral=fget(row, "Relative lateral position", line_no),
                    speed_kmh=fget(row, "Absolute velocity", line_no),
                    heading_deg=fget(row, "Vehicle heading", line_no),
                ))
        if head is not None:
            records.append(DetectionRecord(**head, surroundings=tuple(surroundings)))
    finally:
        if owned:
            stream.close()

    dataset = FieldDataset(
        records=tuple(records),
        meta=DatasetMeta(
            source=source_kind,
            interval=infer_interval([r.timestamp for r in records]),
            route=route,
            detection_range=detection_range,
        ),
    )
    dataset.validate()
    return dataset


def export_detection_csv(dataset: FieldDataset, target=None) -> str | None:
    """Write a FieldDataset back out in the canonical CSV schema.

    With target=None the CSV text is returned; otherwise it is written to
    the given path or stream.
    """
    buf = io.StringIO()
    extra_cols: list[str] = []
    for rec in dataset.records:
        for name, _ in rec.extras:
            if name not in extra_cols:
                extra_cols.append(name)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(DETECTION_COLUMNS) + extra_cols)

    def num(x):
        return repr(float(x))

    for rec in dataset.records:
        base = [
            num(rec.timestamp),
            rec.road_name,
            num(rec.speed_limit_kmh),
            num(rec.speed_kmh),
            num(rec.yaw_rate),
            num(rec.longitude),
            num(rec.latitude),
            num(rec.acceleration),
            str(rec.lane_id),
            num(rec.lane_distance),
        ]
        extras = dict(rec.extras)
        tail = [extras.get(name, "") for name in extra_cols]
        if not rec.surroundings:
            writer.writerow(base + [""] * len(SURROUNDING_COLUMNS) + tail)
        else:
            for obs in rec.surroundings:
                writer.writerow(
                    base
                    + [
                        obs.vehicle_id,
                        str(obs.lane_id),
                        num(obs.rel_longitudinal),
                        num(obs.rel_lateral),
                        num(obs.speed_kmh),
                        num(obs.heading_deg),
                    ]
                    + tail
                )
    text = buf.getvalue()
    if target is None:
        return text
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)
    return None


# ---------------------------------------------------------------------------
# preprocessing


def _presence_segments(records):
    """Each surrounding vehicle's runs of consecutive records, vehicles in id
    order: (vehicle id, [(record index, index in its surroundings), ...])."""
    per_vehicle: dict[str, list[tuple[int, int]]] = {}
    for idx, rec in enumerate(records):
        for oi, obs in enumerate(rec.surroundings):
            per_vehicle.setdefault(obs.vehicle_id, []).append((idx, oi))
    for vid in sorted(per_vehicle):
        entries = per_vehicle[vid]
        start = 0
        for k in range(1, len(entries) + 1):
            if k == len(entries) or entries[k][0] != entries[k - 1][0] + 1:
                yield vid, entries[start:k]
                start = k


def _despike(values, max_jump):
    """Mark samples that jump more than max_jump per step from the last
    accepted sample and linearly interpolate them between good anchors."""
    n = len(values)
    out = list(values)
    good = [0]
    bad = []
    for i in range(1, n):
        allowed = max_jump * (i - good[-1])
        if abs(values[i] - values[good[-1]]) > allowed:
            bad.append(i)
        else:
            good.append(i)
    if not bad:
        return out, 0
    for i in bad:
        left = max(g for g in good if g < i)
        rights = [g for g in good if g > i]
        if rights:
            right = min(rights)
            frac = (i - left) / (right - left)
            out[i] = values[left] + frac * (values[right] - values[left])
        else:
            out[i] = values[left]
    return out, len(bad)


def _smooth(values, n_side):
    if n_side <= 0 or len(values) < 2:
        return list(values)
    out = []
    n = len(values)
    for i in range(n):
        lo = max(0, i - n_side)
        hi = min(n, i + n_side + 1)
        window = values[lo:hi]
        out.append(sum(window) / len(window))
    return out


def preprocess(
    dataset: FieldDataset,
    smoothing_window_s: float = 0.5,
    max_speed_jump: float = 15.0,
) -> FieldDataset:
    """Despike speed series and smooth speeds/relative positions with a
    centered moving average. Record count and timestamps are unchanged.

    max_speed_jump is in m/s per sample step; smoothing_window_s = 0 plus an
    infinite jump threshold makes this the identity.
    """
    if smoothing_window_s < 0:
        raise ValueError("smoothing window must be >= 0")
    interval = dataset.meta.interval or 0.1
    n_side = int(round(smoothing_window_s / (2.0 * interval)))
    jump_kmh = max_speed_jump * 3.6

    n = len(dataset.records)
    subj_speed = [r.speed_kmh for r in dataset.records]
    n_fixed = 0
    subj_speed, k = _despike(subj_speed, jump_kmh)
    n_fixed += k
    subj_speed = _smooth(subj_speed, n_side)

    # per-vehicle surrounding series, smoothed within contiguous presence
    obs_fix: dict[tuple[int, int], SurroundingObs] = {}
    for _vid, seg_entries in _presence_segments(dataset.records):
        seg_obs = [dataset.records[i].surroundings[oi] for i, oi in seg_entries]
        speeds, k = _despike([o.speed_kmh for o in seg_obs], jump_kmh)
        n_fixed += k
        speeds = _smooth(speeds, n_side)
        rlon = _smooth([o.rel_longitudinal for o in seg_obs], n_side)
        rlat = _smooth([o.rel_lateral for o in seg_obs], n_side)
        for j, obs in enumerate(seg_obs):
            if (
                speeds[j] != obs.speed_kmh
                or rlon[j] != obs.rel_longitudinal
                or rlat[j] != obs.rel_lateral
            ):
                obs_fix[seg_entries[j]] = SurroundingObs(
                    vehicle_id=obs.vehicle_id,
                    lane_id=obs.lane_id,
                    rel_longitudinal=rlon[j],
                    rel_lateral=rlat[j],
                    speed_kmh=speeds[j],
                    heading_deg=obs.heading_deg,
                )

    records = []
    for idx, rec in enumerate(dataset.records):
        new_surr = tuple(
            obs_fix.get((idx, oi), obs) for oi, obs in enumerate(rec.surroundings)
        )
        if subj_speed[idx] == rec.speed_kmh and new_surr == rec.surroundings:
            records.append(rec)
        else:
            records.append(replace(rec, speed_kmh=subj_speed[idx], surroundings=new_surr))
    out = FieldDataset(records=tuple(records), meta=dataset.meta)
    return out.with_meta(preprocessed=True, n_interpolated=n_fixed)


# ---------------------------------------------------------------------------
# event types


@dataclass(frozen=True)
class LaneChangeEvent:
    actor: str  # SUBJECT or a surrounding vehicle id
    start_time: float
    end_time: float
    from_lane: int
    to_lane: int
    lc_distance: float | None  # None when a target-lane neighbor was unobserved


@dataclass(frozen=True)
class CutInEvent:
    intruder: str
    time: float
    entry_gap: float


@dataclass(frozen=True)
class CarFollowingEpisode:
    follower: str  # SUBJECT or a surrounding vehicle id
    leader: str
    start_time: float
    end_time: float
    headway_series: tuple[float, ...]

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass(frozen=True)
class EventSet:
    lane_changes: tuple[LaneChangeEvent, ...]
    cut_ins: tuple[CutInEvent, ...]
    episodes: tuple[CarFollowingEpisode, ...]


# ---------------------------------------------------------------------------
# event extraction


def _actor_position(rec: DetectionRecord, actor: str) -> float | None:
    if actor == SUBJECT:
        return 0.0
    for obs in rec.surroundings:
        if obs.vehicle_id == actor:
            return obs.rel_longitudinal
    return None


def _target_lane_gap(rec: DetectionRecord, actor: str, target_lane: int):
    """Gap between the target-lane leader and follower around the actor's
    longitudinal position; None when either neighbor is unobserved."""
    p = _actor_position(rec, actor)
    if p is None:
        return None
    others = []
    if actor != SUBJECT and rec.lane_id == target_lane:
        others.append((0.0, SUBJECT))
    for obs in rec.surroundings:
        if obs.vehicle_id == actor:
            continue
        if obs.lane_id == target_lane:
            others.append((obs.rel_longitudinal, obs.vehicle_id))
    ahead = [q for q, _ in others if q > p]
    behind = [q for q, _ in others if q < p]
    if not ahead or not behind:
        return None
    return min(ahead) - max(behind)


def _scan_lane_changes(times, lanes, rel_lats, debounce_s, subject_lanes=None):
    """Confirmed lane transitions within one presence segment.

    Returns (seg_index_init, from_lane, to_lane) triples, where seg_index_init
    is the first sample in the new lane. A transition is confirmed when the
    lane holds for debounce_s (or to the end of the segment) and, for
    surrounding actors, the lateral movement agrees with the lane numbering
    unless the subject changed lanes at the same step.
    """
    out = []
    confirmed = lanes[0]
    i = 1
    n = len(lanes)
    while i < n:
        if lanes[i] == confirmed:
            i += 1
            continue
        to = lanes[i]
        t_init = times[i]
        j = i
        ok = True
        while j < n and times[j] < t_init + debounce_s:
            if lanes[j] != to:
                ok = False
                break
            j += 1
        if ok and rel_lats is not None:
            moved_left = to > confirmed
            dlat = rel_lats[i] - rel_lats[i - 1]
            subject_moved = (
                subject_lanes is not None and subject_lanes[i] != subject_lanes[i - 1]
            )
            if not subject_moved and dlat != 0.0 and (dlat > 0) != moved_left:
                ok = False  # lateral motion contradicts the lane id change
        if ok:
            out.append((i, confirmed, to))
            confirmed = to
            i = max(j, i + 1)
        else:
            i = max(j, i + 1)
    return out


def _lane_change_details(dataset: FieldDataset, debounce_s: float):
    """All confirmed lane changes with their record indices, subject first."""
    records = dataset.records
    detailed = []

    times = [r.timestamp for r in records]
    lanes = [r.lane_id for r in records]
    for idx_init, frm, to in _scan_lane_changes(times, lanes, None, debounce_s):
        detailed.append((SUBJECT, idx_init - 1, idx_init, frm, to))

    for vid, seg_entries in _presence_segments(records):
        if len(seg_entries) < 2:
            continue
        seg_obs = [records[i].surroundings[oi] for i, oi in seg_entries]
        seg_times = [records[i].timestamp for i, _ in seg_entries]
        seg_lanes = [o.lane_id for o in seg_obs]
        seg_lats = [o.rel_lateral for o in seg_obs]
        seg_subject = [records[i].lane_id for i, _ in seg_entries]
        for k_init, frm, to in _scan_lane_changes(
            seg_times, seg_lanes, seg_lats, debounce_s, seg_subject
        ):
            detailed.append((vid, seg_entries[k_init - 1][0], seg_entries[k_init][0], frm, to))
    detailed.sort(key=lambda e: (dataset.records[e[2]].timestamp, str(e[0])))
    return detailed


def _lane_change_events(dataset: FieldDataset, details):
    """Lane-change events for the subject and every surrounding vehicle.

    The gap between the target-lane leader and follower is measured at
    initiation (the last sample in the origin lane).
    """
    events = []
    for actor, idx_init, idx_entry, frm, to in details:
        rec_init = dataset.records[idx_init]
        events.append(
            LaneChangeEvent(
                actor=actor,
                start_time=rec_init.timestamp,
                end_time=dataset.records[idx_entry].timestamp,
                from_lane=frm,
                to_lane=to,
                lc_distance=_target_lane_gap(rec_init, actor, to),
            )
        )
    return events


def _cut_in_events(dataset: FieldDataset, details, front_max, dedup_window_s):
    """Surrounding vehicles entering the subject's lane ahead of it, at most
    one event per intruder per dedup window."""
    events = []
    last_event: dict[str, float] = {}
    for actor, _idx_init, idx_entry, _frm, to in details:
        if actor == SUBJECT:
            continue
        rec = dataset.records[idx_entry]
        if to != rec.lane_id:
            continue  # not into the subject's current lane
        gap = _actor_position(rec, actor)
        if gap is None or not (0.0 < gap <= front_max):
            continue
        t = rec.timestamp
        if actor in last_event and t - last_event[actor] < dedup_window_s:
            continue
        last_event[actor] = t
        events.append(CutInEvent(intruder=actor, time=t, entry_gap=gap))
    return events


def detect_car_following(
    dataset: FieldDataset,
    max_gap: float = 120.0,
    min_duration: float = 5.0,
    min_speed: float = 1.0,
):
    """Maximal same-lane follower/leader intervals with an unchanged pair,
    both lanes constant, and the gap inside max_gap.

    Headway samples are gap / follower speed; samples below min_speed are
    left out of the series (near-standstill headways diverge).
    """
    records = dataset.records
    episodes: list[CarFollowingEpisode] = []
    active: dict[tuple[str, str], dict] = {}

    for idx, rec in enumerate(records):
        entities = [(SUBJECT, 0.0, rec.lane_id, rec.speed_ms)]
        for obs in sorted(rec.surroundings, key=lambda o: o.vehicle_id):
            entities.append((obs.vehicle_id, obs.rel_longitudinal, obs.lane_id, obs.speed_ms))

        pairs: dict[str, tuple[str, float, float, int]] = {}
        for fid, fpos, flane, fspeed in entities:
            best = None
            for lid, lpos, llane, _ in entities:
                if lid == fid or llane != flane:
                    continue
                gap = lpos - fpos
                if gap <= 0 or gap > max_gap:
                    continue
                if best is None or gap < best[1] or (gap == best[1] and lid < best[0]):
                    best = (lid, gap)
            if best is not None:
                pairs[fid] = (best[0], best[1], fspeed, flane)

        for key in list(active.keys()):
            follower, leader = key
            run = active[key]
            cur = pairs.get(follower)
            contiguous = run["last_idx"] == idx - 1
            same = (
                cur is not None
                and cur[0] == leader
                and contiguous
                and cur[3] == run["lane"]
            )
            if not same:
                _finalize_episode(active.pop(key), records, episodes, min_duration)

        for follower, (leader, gap, fspeed, flane) in pairs.items():
            key = (follower, leader)
            run = active.get(key)
            if run is None:
                run = {
                    "follower": follower,
                    "leader": leader,
                    "start_idx": idx,
                    "last_idx": idx,
                    "lane": flane,
                    "headways": [],
                }
                active[key] = run
            else:
                run["last_idx"] = idx
            if fspeed >= min_speed:
                run["headways"].append(gap / fspeed)

    for run in active.values():
        _finalize_episode(run, records, episodes, min_duration)
    episodes.sort(key=lambda e: (e.start_time, str(e.follower), str(e.leader)))
    return episodes


def _finalize_episode(run, records, episodes, min_duration):
    t0 = records[run["start_idx"]].timestamp
    t1 = records[run["last_idx"]].timestamp
    if t1 - t0 < min_duration:
        return
    episodes.append(
        CarFollowingEpisode(
            follower=run["follower"],
            leader=run["leader"],
            start_time=t0,
            end_time=t1,
            headway_series=tuple(run["headways"]),
        )
    )


def extract_events(
    dataset: FieldDataset,
    debounce_s: float = 1.0,
    cutin_front_max: float = 50.0,
    cutin_dedup_s: float = 10.0,
    cf_max_gap: float = 120.0,
    cf_min_duration: float = 5.0,
    cf_min_speed: float = 1.0,
) -> EventSet:
    """Run all three detectors with one set of thresholds; lane changes and
    cut-ins share one lane-change scan."""
    details = _lane_change_details(dataset, debounce_s)
    return EventSet(
        lane_changes=tuple(_lane_change_events(dataset, details)),
        cut_ins=tuple(_cut_in_events(dataset, details, cutin_front_max, cutin_dedup_s)),
        episodes=tuple(
            detect_car_following(dataset, cf_max_gap, cf_min_duration, cf_min_speed)
        ),
    )


def export_events_csv(events: EventSet, directory) -> None:
    """Write lane_changes.csv, cutins.csv and episodes.csv under directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "lane_changes.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["actor", "start_time", "end_time", "from_lane", "to_lane", "lc_distance"])
        for e in events.lane_changes:
            w.writerow(
                [e.actor, e.start_time, e.end_time, e.from_lane, e.to_lane,
                 "" if e.lc_distance is None else repr(e.lc_distance)]
            )
    with open(directory / "cutins.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["intruder", "time", "entry_gap"])
        for e in events.cut_ins:
            w.writerow([e.intruder, e.time, repr(e.entry_gap)])
    with open(directory / "episodes.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["follower", "leader", "start_time", "end_time", "n_samples", "mean_headway"])
        for e in events.episodes:
            mean = sum(e.headway_series) / len(e.headway_series) if e.headway_series else ""
            w.writerow([e.follower, e.leader, e.start_time, e.end_time,
                        len(e.headway_series), mean])
