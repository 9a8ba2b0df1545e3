"""Parsing and event extraction for detection data.

Works identically on real field data and on simulator output, since both
arrive in the same CSV schema and the same columns (``detection.py``).
Extraction rules the source material leaves open are configurable with
conservative defaults: car-following episodes require a same-lane leader
within 120 m for at least 5 s, lane changes must persist 1 s to debounce
sensor flicker, and cut-ins only count within 50 m ahead of the subject.

Every pass works on the dataset's columns. The car-following pass finds each
vehicle's leader from one sort of all records' vehicles and cuts episodes
from one sort of the pairs; the lane-change scan runs only on the runs of
samples whose lane id changes. Arithmetic is per element, in the operation
order of one record at a time, and every mean is a left-to-right Python
``sum``, so the events do not depend on the layout.
"""

from __future__ import annotations

import csv
import io
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .detection import (
    KMH_TO_MS,
    OBS_FLOATS,
    RECORD_FLOATS,
    SUBJECT,
    SURROUNDING_COLUMNS,
    DETECTION_COLUMNS,
    DatasetMeta,
    FieldDataset,
    infer_interval,
    intern_ids,
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

        def numbers(row, names, lane, line):
            """The columns `names` of a row as floats, the one at `lane` an
            int; a bad cell raises as if the row were read cell by cell."""
            try:
                values = [float(row[col[name]]) for name in names]
            except ValueError:
                values = [(iget if k == lane else fget)(row, name, line)
                          for k, name in enumerate(names)]
            values[lane] = int(round(values[lane]))
            return values

        # a record starts where the timestamp changes; the numbers of each
        # record and observation go, in column order, into flat float arrays
        times, roads, extras, counts, vids = [], [], [], [], []
        heads, obs = array("d"), array("d")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(header):
                raise RowError(line_no, f"expected {len(header)} fields, got {len(row)}")
            t = fget(row, "Timestamp", line_no)
            if not times or t != times[-1]:
                times.append(t)
                extras.append(tuple((name, row[col[name]]) for name in extra_cols))
                roads.append(row[col["Road name"]].strip())
                heads.extend(numbers(row, DETECTION_COLUMNS[2:10], 6, line_no))
                counts.append(0)
            vid = row[col["Vehicle ID"]].strip()
            if vid:
                vids.append(vid)
                obs.extend(numbers(row, SURROUNDING_COLUMNS[1:], 0, line_no))
                counts[-1] += 1
    finally:
        if owned:
            stream.close()

    *floats, lanes, distances = np.array(heads).reshape(-1, 8).T.copy()
    obs_lanes, *obs_floats = np.array(obs).reshape(-1, 5).T.copy()
    codes, names = intern_ids(vids)
    dataset = FieldDataset(
        timestamp=np.array(times, dtype=float),
        road_name=tuple(roads),
        **dict(zip(RECORD_FLOATS, floats)),
        lane_id=lanes.astype(np.int64),
        lane_distance=distances,
        extras=tuple(extras),
        obs_offsets=np.cumsum([0] + counts),
        obs_vehicle=codes,
        vehicle_ids=names,
        obs_lane=obs_lanes.astype(np.int64),
        **{"obs_" + f: v for f, v in zip(OBS_FLOATS, obs_floats)},
        meta=DatasetMeta(
            source=source_kind,
            interval=infer_interval(times),
            detection_range=detection_range,
        ),
    )
    dataset.validate()
    return dataset


def _reprs(column):
    return map(repr, column.tolist())


def export_detection_csv(dataset: FieldDataset, target=None) -> str | None:
    """Write a FieldDataset back out in the canonical CSV schema.

    With target=None the CSV text is returned; otherwise it is written to
    the given path or stream, row by row.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w") as stream:
            return export_detection_csv(dataset, stream)
    ds = dataset
    buf = io.StringIO() if target is None else target
    extra_cols: list[str] = []
    for extras in ds.extras:
        for name, _ in extras:
            if name not in extra_cols:
                extra_cols.append(name)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(DETECTION_COLUMNS) + extra_cols)
    none = [("",) * len(SURROUNDING_COLUMNS)]
    cuts = ds.obs_offsets.tolist()
    # a block at a time: never the whole file's cells at once
    for lo in range(0, len(ds), 256):
        hi = min(lo + 256, len(ds))
        part, o_part = slice(lo, hi), slice(cuts[lo], cuts[hi])
        bases = zip(
            _reprs(ds.timestamp[part]), ds.road_name[part],
            *(_reprs(getattr(ds, f)[part]) for f in RECORD_FLOATS),
            map(str, ds.lane_id[part].tolist()), _reprs(ds.lane_distance[part]),
        )
        obs = zip(
            map(ds.vehicle_ids.__getitem__, ds.obs_vehicle[o_part].tolist()),
            map(str, ds.obs_lane[o_part].tolist()),
            *(_reprs(getattr(ds, "obs_" + f)[o_part]) for f in OBS_FLOATS),
        )
        for i, base, extras in zip(range(lo, hi), bases, ds.extras[part]):
            extras = dict(extras)
            tail = [extras.get(name, "") for name in extra_cols]
            count = cuts[i + 1] - cuts[i]
            rows = islice(obs, count) if count else none
            writer.writerows([*base, *o, *tail] for o in rows)
    return buf.getvalue() if target is None else None


# ---------------------------------------------------------------------------
# preprocessing


def _presence_segments(dataset: FieldDataset):
    """The observations in vehicle-id then record order, and the bounds in
    that order of each vehicle's runs of consecutive records."""
    order = np.argsort(dataset.obs_vehicle, kind="stable")
    codes, rec = dataset.obs_vehicle[order], dataset.obs_record[order]
    starts = np.flatnonzero((codes[1:] != codes[:-1]) | (rec[1:] != rec[:-1] + 1)) + 1
    return order, [0, *starts.tolist(), len(order)] if len(order) else [0]


def _despike(values, max_jump):
    """Mark samples that jump more than max_jump per step from the last
    accepted sample and linearly interpolate them between good anchors."""
    out, good, bad = list(values), [0], []
    for i in range(1, len(values)):
        if abs(values[i] - values[good[-1]]) > max_jump * (i - good[-1]):
            bad.append(i)
        else:
            good.append(i)
    for i in bad:
        k = bisect_left(good, i)  # good[k - 1] < i < good[k]
        left = good[k - 1]
        if k < len(good):
            right = good[k]
            frac = (i - left) / (right - left)
            out[i] = values[left] + frac * (values[right] - values[left])
        else:
            out[i] = values[left]
    return out, len(bad)


def _smooth(values, n_side):
    """Centered moving means, each a left-to-right sum."""
    n = len(values)
    if n_side <= 0 or n < 2:
        return list(values)
    windows = (values[max(0, i - n_side):i + n_side + 1] for i in range(n))
    return [sum(w) / len(w) for w in windows]


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

    speed, n_fixed = _despike(dataset.speed_kmh.tolist(), jump_kmh)
    speed = np.array(_smooth(speed, n_side), dtype=float)

    # per-vehicle surrounding series, smoothed within contiguous presence
    old = (dataset.obs_speed_kmh, dataset.obs_rel_longitudinal, dataset.obs_rel_lateral)
    new = [column.copy() for column in old]
    order, bounds = _presence_segments(dataset)
    for lo, hi in zip(bounds, bounds[1:]):
        seg = order[lo:hi]
        speeds, k = _despike(old[0][seg].tolist(), jump_kmh)
        n_fixed += k
        new[0][seg] = _smooth(speeds, n_side)
        new[1][seg] = _smooth(old[1][seg].tolist(), n_side)
        new[2][seg] = _smooth(old[2][seg].tolist(), n_side)

    # an observation takes its new values when one of them compares unequal,
    # and a record its new speed when that or one of its observations does
    changed = (new[0] != old[0]) | (new[1] != old[1]) | (new[2] != old[2])
    touched = speed != dataset.speed_kmh
    touched[dataset.obs_record[changed]] = True
    return replace(
        dataset,
        speed_kmh=np.where(touched, speed, dataset.speed_kmh),
        obs_speed_kmh=np.where(changed, new[0], old[0]),
        obs_rel_longitudinal=np.where(changed, new[1], old[1]),
        obs_rel_lateral=np.where(changed, new[2], old[2]),
        meta=replace(dataset.meta, preprocessed=True, n_interpolated=n_fixed),
    )


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


def _target_lane_gap(ds: FieldDataset, r: int, o: int | None, target_lane: int):
    """Gap between the target-lane leader and follower around the actor's
    longitudinal position in record r; None when either neighbor is
    unobserved. The actor is observation o, or the subject when o is None."""
    lo, hi = ds.obs_offsets[r:r + 2].tolist()
    positions = ds.obs_rel_longitudinal[lo:hi].tolist()
    p = 0.0 if o is None else positions[o - lo]
    others = [0.0] if o is not None and ds.lane_id[r] == target_lane else []
    others += [
        q for k, (q, lane) in enumerate(zip(positions, ds.obs_lane[lo:hi].tolist()), lo)
        if lane == target_lane and k != o
    ]
    ahead, behind = [q for q in others if q > p], [q for q in others if q < p]
    return min(ahead) - max(behind) if ahead and behind else None


def _scan_lane_changes(times, lanes, cuts, debounce_s, rel_lats=None, subject_lanes=None):
    """Confirmed lane transitions within one presence segment.

    `cuts` lists in order the indices k at which lanes[k] != lanes[k - 1].
    Returns (seg_index_init, from_lane, to_lane) triples, where
    seg_index_init is the first sample in the new lane. A transition is
    confirmed when the lane holds for debounce_s (or to the end of the
    segment) and, for surrounding actors, the lateral movement agrees with
    the lane numbering unless the subject changed lanes at the same step.
    """
    out, confirmed, i, n = [], lanes[0], 1, len(lanes)
    while i < n:
        k = bisect_right(cuts, i)
        cut = cuts[k] if k < len(cuts) else n  # the lane holds until there
        if lanes[i] == confirmed:
            i = cut
            continue
        to = lanes[i]
        held = bisect_left(times, times[i] + debounce_s, i)
        ok = cut >= held
        if ok and rel_lats is not None:  # unless the lateral motion contradicts it
            dlat = rel_lats[i] - rel_lats[i - 1]
            subject_moved = subject_lanes[i] != subject_lanes[i - 1]
            ok = subject_moved or dlat == 0.0 or (dlat > 0) == (to > confirmed)
        if ok:
            out.append((i, confirmed, to))
            confirmed = to
        i = max(min(cut, held), i + 1)
    return out


def _lane_change_details(ds: FieldDataset, debounce_s: float):
    """All confirmed lane changes, ordered by entry time then actor id:
    (actor id, record at initiation, record at entry, the actor's
    observation at initiation and at entry, from lane, to lane); the
    subject's observations are None."""
    times = ds.timestamp.tolist()
    detailed = []
    cuts = (np.flatnonzero(ds.lane_id[1:] != ds.lane_id[:-1]) + 1).tolist()
    if cuts:
        for i, frm, to in _scan_lane_changes(times, ds.lane_id.tolist(), cuts, debounce_s):
            detailed.append((SUBJECT, i - 1, i, None, None, frm, to))

    order, bounds = _presence_segments(ds)
    lanes = ds.obs_lane[order]
    cuts = (np.flatnonzero(lanes[1:] != lanes[:-1]) + 1).tolist()
    by_segment: dict[int, list[int]] = {}
    for k in cuts:  # a cut at a segment's first sample belongs to no segment
        s = bisect_right(bounds, k) - 1
        if k > bounds[s]:
            by_segment.setdefault(s, []).append(k - bounds[s])
    for s, seg_cuts in by_segment.items():
        obs = order[bounds[s]:bounds[s + 1]]
        rec = ds.obs_record[obs]
        recs, obs = rec.tolist(), obs.tolist()
        vid = ds.vehicle_ids[ds.obs_vehicle[obs[0]]]
        for k, frm, to in _scan_lane_changes(
            ds.timestamp[rec].tolist(), ds.obs_lane[obs].tolist(), seg_cuts, debounce_s,
            ds.obs_rel_lateral[obs].tolist(), ds.lane_id[rec].tolist(),
        ):
            detailed.append((vid, recs[k - 1], recs[k], obs[k - 1], obs[k], frm, to))
    detailed.sort(key=lambda e: (times[e[2]], e[0]))
    return detailed


def _lane_change_events(ds: FieldDataset, details):
    """Lane-change events for the subject and every surrounding vehicle; the
    target-lane gap is measured at initiation (the last sample in the origin
    lane)."""
    times = ds.timestamp.tolist()
    return [
        LaneChangeEvent(actor, times[r0], times[r1], frm, to, _target_lane_gap(ds, r0, o0, to))
        for actor, r0, r1, o0, _o1, frm, to in details
    ]


def _cut_in_events(ds: FieldDataset, details, front_max, dedup_window_s):
    """Surrounding vehicles entering the subject's lane ahead of it, at most
    one event per intruder per dedup window."""
    events, last_event = [], {}
    for actor, _r0, r1, _o0, o1, _frm, to in details:
        if o1 is None or to != ds.lane_id[r1]:
            continue  # the subject, or not into the subject's current lane
        gap, t = ds.obs_rel_longitudinal[o1].item(), ds.timestamp[r1].item()
        if not (0.0 < gap <= front_max) or (
            actor in last_event and t - last_event[actor] < dedup_window_s
        ):
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

    A vehicle's leader is the nearest vehicle strictly ahead in its lane in
    the same record; of several at an equal gap, the one whose id sorts
    first (the subject's id is ``SUBJECT``). Headway samples are gap /
    follower speed; samples below min_speed are left out of the series
    (near-standstill headways diverge).
    """
    ds = dataset
    n = len(ds)
    ids = list(ds.vehicle_ids)
    subject = bisect_left(ids, SUBJECT)
    ids.insert(subject, SUBJECT)
    # every vehicle of every record, the subject included, sorted by
    # (record, lane, position, id): a leader is the first of the next
    # position in the same group
    code = np.concatenate(
        (np.full(n, subject), ds.obs_vehicle + (ds.obs_vehicle >= subject))
    )
    pos = np.concatenate((np.zeros(n), ds.obs_rel_longitudinal))
    lane = np.concatenate((ds.lane_id, ds.obs_lane))
    rec = np.concatenate((np.arange(n), ds.obs_record))
    o = np.lexsort((code, pos, lane, rec))
    code, pos, lane, rec = code[o], pos[o], lane[o], rec[o]
    speed = (np.concatenate((ds.speed_kmh, ds.obs_speed_kmh)) * KMH_TO_MS)[o]
    m = len(o)
    new_group = np.ones(m, dtype=bool)
    new_group[1:] = (rec[1:] != rec[:-1]) | (lane[1:] != lane[:-1])
    new_pos = new_group.copy()
    new_pos[1:] |= pos[1:] != pos[:-1]
    group = np.append(np.cumsum(new_group), -1)
    at = np.cumsum(new_pos) - 1  # each vehicle's position run
    after = np.append(np.flatnonzero(new_pos)[1:], [m, m])  # the start of the next run
    lead = after[at]
    padded = np.append(pos, 0.0)  # row m stands for "no vehicle" (group -1)
    gap = padded[lead] - pos
    found = (group[lead] == group[:m]) & (gap <= max_gap)
    leader = np.append(code, -1)[lead]
    follow = found.nonzero()[0]
    if not len(follow):
        return []
    # a farther position whose gap rounds to the same value ties
    beyond = after[at[lead[follow]]]
    tied = (group[beyond] == group[follow]) & (padded[beyond] - pos[follow] == gap[follow])
    for k in follow[tied].tolist():
        j = lead[k]
        while group[j] == group[k] and pos[j] - pos[k] == gap[k]:
            leader[k] = min(leader[k], code[j])
            j = after[at[j]]

    # episodes: runs of consecutive records with one leader and lane
    q = follow[np.lexsort((rec[follow], code[follow]))]
    f, ld, r, ln = code[q], leader[q], rec[q], lane[q]
    bounds = np.flatnonzero(
        (f[1:] != f[:-1]) | (ld[1:] != ld[:-1]) | (r[1:] != r[:-1] + 1) | (ln[1:] != ln[:-1])
    ) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(q)]))
    t0, t1 = ds.timestamp[r[starts]], ds.timestamp[r[ends - 1]]
    fast = speed[q] >= min_speed
    headways = (gap[q][fast] / speed[q][fast]).tolist()
    cut = np.concatenate(([0], np.cumsum(fast))).tolist()
    episodes = [
        CarFollowingEpisode(
            follower=ids[f[a]], leader=ids[ld[a]], start_time=s, end_time=e,
            headway_series=tuple(headways[cut[a]:cut[b]]),
        )
        for a, b, s, e in zip(starts.tolist(), ends.tolist(), t0.tolist(), t1.tolist())
        if not e - s < min_duration
    ]
    episodes.sort(key=lambda e: (e.start_time, e.follower, e.leader))
    return episodes


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
