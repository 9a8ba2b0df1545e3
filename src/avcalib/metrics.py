"""Measures of performance, goodness of fit and evaluation measures.

All comparative measures are relative errors and are kept as fractions
internally; render as percentages only at presentation time. Background
(surrounding-vehicle) averages are per-vehicle means first, then a mean
over vehicles, so a vehicle observed for long does not dominate one seen
briefly.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

from .detection import SUBJECT, FieldDataset
from .fielddata import EventSet

log = logging.getLogger(__name__)

# Stage-level MoP names
AVG_SUBJECT_SPEED = "avg_subject_speed"
AVG_DENSITY = "avg_density"
AVG_CF_HEADWAY_BG = "avg_cf_headway_bg"
AVG_LC_DISTANCE_SUBJECT = "avg_lc_distance_subject"
AVG_LC_DISTANCE_BG = "avg_lc_distance_bg"
CUTIN_COUNT = "cutin_count"


class ZeroFieldValueError(ValueError):
    """A field MoP value of zero makes the relative error undefined."""


@dataclass(frozen=True)
class MopEntry:
    name: str
    value: float | None  # None marks a MoP with no observations
    units: str = ""
    count: int = 0

    @property
    def missing(self) -> bool:
        return self.value is None


class MopVector:
    """Ordered, uniquely named measures of performance."""

    def __init__(self, entries):
        self._entries: dict[str, MopEntry] = {}
        for e in entries:
            if e.name in self._entries:
                raise ValueError(f"duplicate MoP name {e.name}")
            self._entries[e.name] = e

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def entry(self, name: str) -> MopEntry:
        return self._entries[name]

    def value(self, name: str) -> float | None:
        return self._entries[name].value

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self):
        return len(self._entries)

    def to_dict(self) -> dict:
        return {
            e.name: {"value": e.value, "units": e.units, "count": e.count}
            for e in self._entries.values()
        }

    @classmethod
    def mean_of(cls, vectors) -> "MopVector":
        """Entry-wise mean over several vectors; an entry missing in every
        vector stays missing, otherwise present values are averaged."""
        vectors = list(vectors)
        names = vectors[0].names
        out = []
        for name in names:
            vals = [v.value(name) for v in vectors if v.value(name) is not None]
            counts = sum(v.entry(name).count for v in vectors)
            units = vectors[0].entry(name).units
            if vals:
                out.append(MopEntry(name, sum(vals) / len(vals), units, counts))
            else:
                out.append(MopEntry(name, None, units, 0))
        return cls(out)


def _infer_lane_count(dataset: FieldDataset) -> int:
    lanes = [r.lane_id for r in dataset.records]
    for r in dataset.records:
        lanes.extend(o.lane_id for o in r.surroundings)
    return max(lanes) if lanes else 1


def _mean_window_count(dataset: FieldDataset) -> float:
    total = 0
    for r in dataset.records:
        total += 1 + len(r.surroundings)
    return total / len(dataset.records)


def compute_traffic_mops(
    dataset: FieldDataset,
    lane_count: int | None = None,
    per_road: bool = False,
) -> MopVector:
    """Traffic-level MoPs from moving-observer detection data.

    Mean subject speed (m/s) and mean density in veh/km/lane, the latter
    as the time-mean vehicle count inside the detection window (subject
    included) over window length times lane count. lane_count defaults to
    the highest lane id seen anywhere in the dataset.

    per_road=True additionally emits one mean-density entry per traveled
    road (``avg_density:<road>``), the single-road variant from the MoP
    catalog; a whole-route average alone cannot separate the contributions
    of individual entrance roads.
    """
    if len(dataset.records) == 0:
        raise ValueError("empty dataset")
    if lane_count is None:
        lane_count = _infer_lane_count(dataset)
    rear, front = dataset.meta.detection_range
    window_km = (front - rear) / 1000.0
    if window_km <= 0:
        raise ValueError("detection window must have positive length")
    speed = sum(r.speed_ms for r in dataset.records) / len(dataset.records)
    density = _mean_window_count(dataset) / (window_km * lane_count)
    entries = [
        MopEntry(AVG_SUBJECT_SPEED, speed, "m/s", len(dataset.records)),
        MopEntry(AVG_DENSITY, density, "veh/km/lane", len(dataset.records)),
    ]
    if per_road:
        by_road: dict[str, list[int]] = {}
        for r in dataset.records:
            by_road.setdefault(r.road_name, []).append(1 + len(r.surroundings))
        for road in sorted(by_road):
            counts = by_road[road]
            entries.append(
                MopEntry(
                    f"{AVG_DENSITY}:{road}",
                    sum(counts) / len(counts) / (window_km * lane_count),
                    "veh/km/lane",
                    len(counts),
                )
            )
    return MopVector(entries)


def _per_vehicle_then_pooled(samples_by_vehicle: dict[str, list[float]]) -> float | None:
    means = [sum(v) / len(v) for v in samples_by_vehicle.values() if v]
    if not means:
        return None
    return sum(means) / len(means)


def _bg_headway(events: EventSet) -> tuple[float | None, int]:
    by_vehicle: dict[str, list[float]] = {}
    n = 0
    for ep in events.episodes:
        if ep.follower == SUBJECT:
            continue
        by_vehicle.setdefault(ep.follower, []).extend(ep.headway_series)
        n += len(ep.headway_series)
    return _per_vehicle_then_pooled(by_vehicle), n


def _subject_headway(events: EventSet) -> tuple[float | None, int]:
    samples: list[float] = []
    for ep in events.episodes:
        if ep.follower == SUBJECT:
            samples.extend(ep.headway_series)
    if not samples:
        return None, 0
    return sum(samples) / len(samples), len(samples)


def _lc_distances(events: EventSet, subject: bool):
    out: dict[str, list[float]] = {}
    for e in events.lane_changes:
        if (e.actor == SUBJECT) != subject or e.lc_distance is None:
            continue
        out.setdefault(e.actor, []).append(e.lc_distance)
    return out


def compute_vehicle_mops(events: EventSet) -> MopVector:
    """Vehicle-level MoPs from extracted interaction events.

    A MoP with no observations is flagged missing rather than set to zero;
    the cut-in count is the exception, since zero observed cut-ins is a
    value in its own right.
    """
    bg_headway, n_bg = _bg_headway(events)
    subj_lc = _lc_distances(events, subject=True)
    bg_lc = _lc_distances(events, subject=False)
    subj_samples = [d for v in subj_lc.values() for d in v]
    subj_mean = sum(subj_samples) / len(subj_samples) if subj_samples else None
    bg_mean = _per_vehicle_then_pooled(bg_lc)
    entries = [
        MopEntry(AVG_CF_HEADWAY_BG, bg_headway, "s", n_bg),
        MopEntry(AVG_LC_DISTANCE_SUBJECT, subj_mean, "m", len(subj_samples)),
        MopEntry(AVG_LC_DISTANCE_BG, bg_mean, "m",
                 sum(len(v) for v in bg_lc.values())),
        MopEntry(CUTIN_COUNT, float(len(events.cut_ins)), "count", len(events.cut_ins)),
    ]
    for e in entries:
        if e.missing:
            log.info("MoP %s has no observations; flagged missing", e.name)
    return MopVector(entries)


def goodness_of_fit(field: MopVector, sim: MopVector) -> float:
    """Sum of relative MoP discrepancies |field - sim| / |field| over the
    entries present on both sides. A zero field value is an error because
    the relative form is undefined there."""
    shared = [n for n in field.names if n in sim.names]
    if not shared:
        raise ValueError("no shared MoP names")
    total = 0.0
    used = 0
    for name in shared:
        fv, sv = field.value(name), sim.value(name)
        if fv is None or sv is None:
            warnings.warn(f"MoP {name} missing on one side; excluded from fit")
            continue
        if fv == 0.0:
            raise ZeroFieldValueError(f"field MoP {name} is zero")
        total += abs(fv - sv) / abs(fv)
        used += 1
    if used == 0:
        raise ValueError("every shared MoP was missing on one side")
    return total


def accuracy(field: MopVector, sim: MopVector) -> float:
    """1 minus the goodness-of-fit; can go negative, which still ranks."""
    return 1.0 - goodness_of_fit(field, sim)


@dataclass(frozen=True)
class CutinErrorParams:
    delta_lb: float = 0.0
    delta_ub: float = 1.0

    def __post_init__(self):
        if not self.delta_lb < self.delta_ub:
            raise ValueError("delta_lb must be below delta_ub")


def cutin_error(n_real: float, n_sim: float, p: CutinErrorParams = CutinErrorParams()) -> float:
    """Fuzzy-membership error on the cut-in count difference: 0 up to the
    lower break, 1 from the upper break, linear in between."""
    if n_real < 0 or n_sim < 0:
        raise ValueError("cut-in counts must be non-negative")
    dn = abs(n_real - n_sim)
    if dn <= p.delta_lb:
        return 0.0
    if dn >= p.delta_ub:
        return 1.0
    return (dn - p.delta_lb) / (p.delta_ub - p.delta_lb)


@dataclass(frozen=True)
class MoeReport:
    """Evaluation measures, all as fractions (0.25 means 25%).

    e_veh is the sum of the five vehicle-level terms. Measures whose field
    denominator was zero or unobservable appear in `errors` instead of as
    numbers.
    """

    e_t_sub: float | None = None
    e_t_bg: float | None = None
    e_d_sub: float | None = None
    e_d_bg: float | None = None
    e_cutin: float | None = None
    e_v: float | None = None
    e_rho: float | None = None
    e_vol: float | None = None
    e_dynamics: float | None = None
    errors: dict = field(default_factory=dict)

    @property
    def e_veh(self) -> float | None:
        parts = (self.e_t_sub, self.e_t_bg, self.e_d_sub, self.e_d_bg, self.e_cutin)
        if any(p is None for p in parts):
            return None
        return sum(parts)

    def to_dict(self) -> dict:
        return {
            "e_t_sub": self.e_t_sub,
            "e_t_bg": self.e_t_bg,
            "e_d_sub": self.e_d_sub,
            "e_d_bg": self.e_d_bg,
            "e_cutin": self.e_cutin,
            "e_veh": self.e_veh,
            "e_v": self.e_v,
            "e_rho": self.e_rho,
            "e_vol": self.e_vol,
            "e_dynamics": self.e_dynamics,
            "errors": dict(self.errors),
        }


def _relative_error(real: float | None, sim: float | None, name: str, errors: dict):
    if real is None or sim is None:
        errors[name] = "unobserved on at least one side"
        return None
    if real == 0.0:
        errors[name] = "field value is zero; relative error undefined"
        return None
    return abs(real - sim) / abs(real)


def _pooled_traffic_speed(dataset: FieldDataset) -> float | None:
    speeds = []
    for r in dataset.records:
        speeds.append(r.speed_ms)
        speeds.extend(o.speed_ms for o in r.surroundings)
    if not speeds:
        return None
    return sum(speeds) / len(speeds)


def evaluate_moes(
    field_dataset: FieldDataset,
    field_events: EventSet,
    sim_dataset: FieldDataset,
    sim_events: EventSet,
    cutin_params: CutinErrorParams = CutinErrorParams(),
    lane_count: int | None = None,
) -> MoeReport:
    """Full evaluation between a field and a simulated dataset.

    Vehicle level: subject headway, background headway, subject and
    background lane-change distances, and the fuzzy cut-in error. Traffic
    level: sampled traffic speed, window density, an estimated volume
    (density times mean observed speed) and the subject-speed dynamics
    error. Any measure whose field denominator is zero is reported in
    `errors` and the rest of the report is still produced.
    """
    errors: dict = {}

    f_t_sub, _ = _subject_headway(field_events)
    s_t_sub, _ = _subject_headway(sim_events)
    e_t_sub = _relative_error(f_t_sub, s_t_sub, "e_t_sub", errors)

    f_t_bg, _ = _bg_headway(field_events)
    s_t_bg, _ = _bg_headway(sim_events)
    e_t_bg = _relative_error(f_t_bg, s_t_bg, "e_t_bg", errors)

    def subject_lc_mean(ev):
        vals = [d for v in _lc_distances(ev, subject=True).values() for d in v]
        return sum(vals) / len(vals) if vals else None

    e_d_sub = _relative_error(
        subject_lc_mean(field_events), subject_lc_mean(sim_events), "e_d_sub", errors
    )
    e_d_bg = _relative_error(
        _per_vehicle_then_pooled(_lc_distances(field_events, subject=False)),
        _per_vehicle_then_pooled(_lc_distances(sim_events, subject=False)),
        "e_d_bg",
        errors,
    )
    e_cutin = cutin_error(
        len(field_events.cut_ins), len(sim_events.cut_ins), cutin_params
    )

    e_v = _relative_error(
        _pooled_traffic_speed(field_dataset), _pooled_traffic_speed(sim_dataset),
        "e_v", errors,
    )

    def density_of(ds):
        try:
            return compute_traffic_mops(ds, lane_count).value(AVG_DENSITY)
        except ValueError:
            return None

    f_rho, s_rho = density_of(field_dataset), density_of(sim_dataset)
    e_rho = _relative_error(f_rho, s_rho, "e_rho", errors)

    # volume is estimated from the moving observer as density * mean speed;
    # there is no fixed detector in this kind of data
    f_speed = _pooled_traffic_speed(field_dataset)
    s_speed = _pooled_traffic_speed(sim_dataset)
    f_vol = None if (f_rho is None or f_speed is None) else f_rho * f_speed * 3.6
    s_vol = None if (s_rho is None or s_speed is None) else s_rho * s_speed * 3.6
    e_vol = _relative_error(f_vol, s_vol, "e_vol", errors)

    def subject_speed(ds):
        if not ds.records:
            return None
        return sum(r.speed_ms for r in ds.records) / len(ds.records)

    e_dynamics = _relative_error(
        subject_speed(field_dataset), subject_speed(sim_dataset), "e_dynamics", errors
    )

    return MoeReport(
        e_t_sub=e_t_sub,
        e_t_bg=e_t_bg,
        e_d_sub=e_d_sub,
        e_d_bg=e_d_bg,
        e_cutin=e_cutin,
        e_v=e_v,
        e_rho=e_rho,
        e_vol=e_vol,
        e_dynamics=e_dynamics,
        errors=errors,
    )


def jaccard_similarity(a, b, k: int) -> float:
    """Overlap of two equally sized parameter sets, measured against the
    set size k."""
    a, b = set(a), set(b)
    if k <= 0:
        raise ValueError("k must be positive")
    if len(a) != k or len(b) != k:
        raise ValueError(f"both sets must contain exactly k={k} parameters")
    return len(a & b) / k
