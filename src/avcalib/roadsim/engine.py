"""Discrete-time microscopic traffic simulation.

Vehicles live on the subject-route link chain. Each step runs synchronously
from a pre-step snapshot, in this order: insert the subject (at the end of
warm-up) and queued arrivals; count the step on the log and hand the
simulation to the run's sink; find every vehicle's leader in one pass over
the lane index, then take car-following and lane-change decisions for every
vehicle against the snapshot; integrate once (explicit Euler, speed clamped
at zero), move each vehicle across link ends and file it in the new lane
index; push back overlapping vehicles. Lane changes flip the lane index at
the midpoint of a fixed-duration lateral ramp so the lateral offset stays
continuous for the detection output.

A sink is a callable that takes the Simulation once per step and reads the
live vehicle state. ``record_frame``, the default, stores a ``Frame`` per
step in ``TrajectoryLog.frames``; the virtual detector (``detector.py``) is
a sink that stores nothing but its detection records and reads the subject
from ``Simulation.subject`` (set at its insertion, None once it despawns).
An exception raised by the sink ends the run. The log's counters do not
depend on the sink.

A vehicle due a lane-change evaluation compares its sides with the
acceleration ``a`` just decided for it in its current lane. No side can pay
off when ``max(max_free_accel(v, v_des, dt), -v/dt) - a`` is at most the
advantage threshold, since no leader in a target lane can demand more than
that bound; the vehicle then stays without a neighbour-lane scan. The skip
is exact: the full evaluation would also decide to stay.

The lane index (``Simulation._lanes``) holds each (link, lane)'s vehicles
sorted by position, ties in filing order, a vehicle mid-lane-change in its
origin and target lane too. One routine, ``_file``, puts a vehicle in it:
``_apply`` files each vehicle as it settles after its move, the insertions
add to it in place, and only a collision pushback files every vehicle
again. It serves collision resolution, the insertions and the next step's
decisions.

The leader pass walks the index once per step. A vehicle's leader
(``lead``, at centre distance ``lead_d``) is the next member of its group;
the last member of a group looks downstream along its lane's chain of
(link, lane) groups, worked out once per (link, lane): the lane id, capped
at each link's lane count, for up to ``LOOKAHEAD_LINKS`` links (see
``_leader_in_lane``). A vehicle in two lanes keeps the nearer leader, the
group met first on a tie.

Everything is driven by one seeded generator per entrance plus the scenario
seed, so an identical ScenarioConfig reproduces the run bit for bit.

Vehicle state and route geometry are plain Python floats; numpy appears only
in recorded ``Frame``s, the log's arrival times and the arrival generators,
whose draws are floats. A numpy scalar reaching the state would change no
result but make every operation of the step loop several times slower.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from bisect import bisect_left, insort_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import (
    CHANGE_LEFT,
    CHANGE_RIGHT,
    STAY,
    NeighborView,
    lane_change_decision,
)
from .network import ScenarioConfig

LANE_WIDTH = 3.5          # m
LC_DURATION = 3.0         # s, lateral ramp; lane index flips at the midpoint
LC_CHECK_INTERVAL = 1.0   # s between lane-change evaluations per vehicle
LC_COOLDOWN = 5.0         # s after completing a change
LC_CLEARANCE = 15.0       # m to another vehicle already moving into the lane
GRIDLOCK_SPEED = 0.1      # m/s
GRIDLOCK_TIME = 300.0     # s
LOOKAHEAD_LINKS = 3

KIND_BACKGROUND = 0
KIND_SUBJECT = 1
SUBJECT_VID = 0


_pos = operator.attrgetter("pos")
_vid = operator.attrgetter("vid")
_key = operator.itemgetter(0)


class MissingSubjectError(RuntimeError):
    """No subject vehicle where one is required. ``log`` is the log of the
    run that stopped, up to the step that lacked the subject."""

    def __init__(self, message: str, log: TrajectoryLog | None = None):
        super().__init__(message)
        self.log = log


class Vehicle:
    """One vehicle's state. ``lead``/``lead_d`` are set by the step's leader
    pass; ``cf``, ``v_des``, ``free_bound`` and ``lc_threshold`` are its
    model's ``accel``, ``desired_speed``, ``max_free_accel`` and lane-change
    advantage threshold, set when the simulation adds it."""

    __slots__ = (
        "vid", "kind", "link_idx", "lane", "pos", "lat", "speed", "accel",
        "length", "factor", "lc_start", "lc_from", "lc_to",
        "lc_switched", "lc_done_at", "next_lc_check", "lat_rate", "fixed",
        "lead", "lead_d", "cf", "v_des", "free_bound", "lc_threshold",
    )

    def __init__(self, vid, kind, link_idx, lane, pos, speed, length, factor, fixed=False):
        self.vid = vid
        self.kind = kind
        self.link_idx = link_idx
        self.lane = lane
        self.pos = pos
        self.lat = 0.0
        self.speed = speed
        self.accel = 0.0
        self.length = length
        self.factor = factor
        self.lc_start = None
        self.lc_from = 0
        self.lc_to = 0
        self.lc_switched = False
        self.lc_done_at = -1e9
        self.next_lc_check = 0.0
        self.lat_rate = 0.0
        self.fixed = fixed
        self.lead = None
        self.lead_d = math.inf


@dataclass(frozen=True)
class Frame:
    time: float
    ids: np.ndarray
    kinds: np.ndarray
    link_idx: np.ndarray
    lanes: np.ndarray
    pos: np.ndarray
    lat: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    heading: np.ndarray
    length: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SpawnEvent:
    time: float
    vehicle_id: int
    entrance: str
    link: str
    lane: int


@dataclass(frozen=True)
class DespawnEvent:
    time: float
    vehicle_id: int


@dataclass(frozen=True)
class LaneChangeRecord:
    time: float
    vehicle_id: int
    link: str
    from_lane: int
    to_lane: int


@dataclass(frozen=True)
class CollisionEvent:
    time: float
    follower_id: int
    leader_id: int
    link: str
    lane: int


@dataclass
class TrajectoryLog:
    """Spawn/despawn/lane-change/collision events, step counters and, when
    the run records them, per-step vehicle snapshots (``frames``). Steps
    before warmup_time are warm-up and excluded from metric extraction.

    The counters count every step the engine handed to its sink: ``steps``
    and ``vehicle_steps`` (vehicles present, summed over steps), and the
    same for the live steps after warm-up; ``lc_evaluations``, the
    lane-change evaluations due, and ``lc_scans``, those the exact skip
    did not settle, which scan the neighbour lanes."""

    time_step: float
    warmup_time: float
    route_link_ids: tuple[str, ...]
    route_lane_counts: tuple[int, ...]
    route_lengths: tuple[float, ...]
    frames: list = field(default_factory=list)
    spawns: list = field(default_factory=list)
    despawns: list = field(default_factory=list)
    lane_changes: list = field(default_factory=list)
    collisions: list = field(default_factory=list)
    arrival_times: dict = field(default_factory=dict)
    feasible: bool = True
    gridlock_at: float | None = None
    steps: int = 0
    vehicle_steps: int = 0
    live_steps: int = 0
    live_vehicle_steps: int = 0
    lc_evaluations: int = 0
    lc_scans: int = 0

    @property
    def collision_count(self) -> int:
        return len(self.collisions)

    def is_warmup(self, t: float) -> bool:
        return t < self.warmup_time

    def mean_density(self) -> float:
        """Post-warm-up mean vehicle density over the route, veh/km/lane."""
        lane_km = sum(
            length * lanes for length, lanes in zip(self.route_lengths, self.route_lane_counts)
        ) / 1000.0
        if not self.live_steps or lane_km <= 0:
            return 0.0
        return self.live_vehicle_steps / self.live_steps / lane_km

    def to_csv(self, target=None) -> str | None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["time", "vehicle_id", "kind", "link", "lane", "position",
             "lateral_offset", "speed", "acceleration", "heading", "length", "warmup"]
        )
        for f in self.frames:
            warm = 1 if self.is_warmup(f.time) else 0
            for i in range(len(f)):
                w.writerow(
                    [
                        repr(float(f.time)),
                        int(f.ids[i]),
                        "subject" if f.kinds[i] == KIND_SUBJECT else "background",
                        self.route_link_ids[int(f.link_idx[i])],
                        int(f.lanes[i]),
                        repr(float(f.pos[i])),
                        repr(float(f.lat[i])),
                        repr(float(f.speed[i])),
                        repr(float(f.accel[i])),
                        repr(float(f.heading[i])),
                        repr(float(f.length[i])),
                        warm,
                    ]
                )
        text = buf.getvalue()
        if target is None:
            return text
        if isinstance(target, (str, Path)):
            Path(target).write_text(text)
        else:
            target.write(text)
        return None


def heading_deg(v: Vehicle) -> float:
    """Angle of the vehicle's motion to the road direction, 0 unless it is
    moving sideways above 0.5 m/s."""
    if v.lat_rate != 0.0 and v.speed > 0.5:
        return math.degrees(math.atan2(v.lat_rate, v.speed))
    return 0.0


def record_frame(sim: Simulation) -> None:
    """The recording sink: append the step's vehicles, in id order, to
    ``sim.log.frames``."""
    vs = sorted(sim.vehicles, key=_vid)
    sim.log.frames.append(
        Frame(
            time=sim.time,
            ids=np.asarray([v.vid for v in vs], dtype=np.int32),
            kinds=np.asarray([v.kind for v in vs], dtype=np.int8),
            link_idx=np.asarray([v.link_idx for v in vs], dtype=np.int16),
            lanes=np.asarray([v.lane for v in vs], dtype=np.int16),
            pos=np.asarray([v.pos for v in vs], dtype=np.float64),
            lat=np.asarray([v.lat for v in vs], dtype=np.float64),
            speed=np.asarray([v.speed for v in vs], dtype=np.float64),
            accel=np.asarray([v.accel for v in vs], dtype=np.float64),
            heading=np.asarray([heading_deg(v) for v in vs], dtype=np.float64),
            length=np.asarray([v.length for v in vs], dtype=np.float64),
        )
    )


class Simulation:
    """One scenario instance. Single-threaded and self-contained; multiple
    instances never share mutable state."""

    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        net = config.network
        self.route = [net.link(lid) for lid in net.subject_route]
        self.route_ids = tuple(l.id for l in self.route)
        self.offsets = net.route_offsets()
        self._lengths = [l.length for l in self.route]
        self._limits = [l.speed_limit_ms for l in self.route]
        self.entrances = sorted(
            (e for e in net.entrances if config.entrance_inputs.get(e.id, 0.0) >= 0.0),
            key=lambda e: e.id,
        )
        route_index = {lid: i for i, lid in enumerate(self.route_ids)}
        for e in self.entrances:
            if e.link not in route_index:
                raise ValueError(
                    f"entrance {e.id} must attach to a subject-route link; got {e.link}"
                )
        self._entrance_link_idx = {e.id: route_index[e.link] for e in self.entrances}

        bg = config.behavior["background"]
        subj = config.subject_behavior()
        self._cf_spec = {KIND_BACKGROUND: bg.car_following, KIND_SUBJECT: subj.car_following}
        self._lc_spec = {KIND_BACKGROUND: bg.lane_change, KIND_SUBJECT: subj.lane_change}
        self._behavior = {
            k: (m.accel, m.desired_speed, m.max_free_accel, self._lc_spec[k].advantage_threshold)
            for k, m in self._cf_spec.items()
        }
        self._spawn_gap = bg.car_following.spawn_gap
        self._ahead, self._behind = self._lane_chains()

        self.dt = config.time_step
        self.n_steps = int(round(config.total_time / config.time_step))
        self.warmup_steps = int(round(config.warmup_time / config.time_step))
        self.time = 0.0
        self.step_index = 0
        self.vehicles: list[Vehicle] = []
        self.subject: Vehicle | None = None
        self._lanes: dict[tuple[int, int], list[Vehicle]] = {}  # see _file
        self.next_vid = 1

        self._rngs = {
            e.id: np.random.default_rng([int(config.seed) & 0xFFFFFFFFFFFFFFFF, i])
            for i, e in enumerate(self.entrances)
        }
        self._rates = {
            e.id: config.entrance_inputs.get(e.id, 0.0) / 3600.0 for e in self.entrances
        }
        self._next_arrival = {}
        self._queues = {e.id: [] for e in self.entrances}
        self._gridlock_accum = 0.0
        self._collision_pairs: set = set()

        self.log = TrajectoryLog(
            time_step=self.dt,
            warmup_time=config.warmup_time,
            route_link_ids=self.route_ids,
            route_lane_counts=tuple(l.lane_count for l in self.route),
            route_lengths=tuple(l.length for l in self.route),
            arrival_times={e.id: [] for e in self.entrances},
        )
        for e in self.entrances:
            self._next_arrival[e.id] = self._draw_arrival(e.id, 0.0)

    # -- arrival process ----------------------------------------------------

    def _draw_arrival(self, eid: str, after: float) -> float:
        rate = self._rates[eid]
        if rate <= 0.0:
            return math.inf
        return after + self._rngs[eid].exponential(1.0 / rate)

    def _collect_arrivals(self):
        horizon = self.time + self.dt
        for e in self.entrances:
            eid = e.id
            while self._next_arrival[eid] < horizon:
                t_arr = self._next_arrival[eid]
                factor = 1.0
                if self.cfg.speed_variation > 0.0:
                    factor = 1.0 + self._rngs[eid].uniform(
                        -self.cfg.speed_variation, self.cfg.speed_variation
                    )
                self._queues[eid].append((t_arr, factor))
                self.log.arrival_times[eid].append(t_arr)
                self._next_arrival[eid] = self._draw_arrival(eid, t_arr)

    # -- geometry helpers ---------------------------------------------------

    def _lane_chains(self):
        """For each (link, lane), with lanes up to the route's widest link:
        the (link, lane, offset) groups that ``_leader_in_lane`` walks
        downstream and ``_follower_in_lane`` walks upstream."""
        route = self.route
        n = len(route)
        widest = max(l.lane_count for l in route)
        ahead, behind = {}, {}
        for link_idx in range(n):
            for lane in range(1, widest + 1):
                chain = []
                lanes_here = lane
                for j in range(link_idx, min(link_idx + LOOKAHEAD_LINKS + 1, n)):
                    lanes_here = min(lanes_here, route[j].lane_count)
                    chain.append((j, lanes_here, self.offsets[j]))
                ahead[link_idx, lane] = tuple(chain)
                # upstream links in this chain keep lane ids
                chain = [(link_idx, lane, self.offsets[link_idx])]
                for j in range(link_idx - 1, max(link_idx - LOOKAHEAD_LINKS - 1, -1), -1):
                    if lane > route[j].lane_count:
                        break
                    chain.append((j, lane, self.offsets[j]))
                behind[link_idx, lane] = tuple(chain)
        return ahead, behind

    def _file(self, v: Vehicle) -> None:
        """Put `v` in the lane index after any members at equal pos, and
        clear its leader for the next leader pass. A vehicle mid-lane-change
        occupies its origin and target lane too, so gap checks respect it on
        either side."""
        v.lead = None
        v.lead_d = math.inf
        lanes = self._lanes
        for lane in (v.lane,) if v.lc_start is None else {v.lane, v.lc_from, v.lc_to}:
            group = lanes.get((v.link_idx, lane))
            if group is None:
                lanes[v.link_idx, lane] = [v]
            else:
                insort_right(group, v, key=_pos)

    def _add(self, veh: Vehicle) -> None:
        """Append a new vehicle with its model's behaviour and file it."""
        veh.cf, veh.v_des, veh.free_bound, veh.lc_threshold = self._behavior[veh.kind]
        self.vehicles.append(veh)
        self._file(veh)

    def _leader_in_lane(self, link_idx, lane, arc, exclude=None):
        """Closest vehicle at or ahead of arc position `arc` in the given
        lane, following the chain downstream (the lane id capped at each
        link's lane count); a vehicle exactly abreast is a leader at
        distance 0. Returns (vehicle, center_distance)."""
        return self._first_ahead(self._ahead[link_idx, lane], arc, exclude)

    def _first_ahead(self, chain, arc, exclude):
        """The first vehicle but `exclude` at or ahead of `arc` in the groups
        of `chain`, and its distance; (None, inf) if there is none."""
        lanes = self._lanes
        for j, lane_here, offset in chain:
            group = lanes.get((j, lane_here))
            if not group:
                continue
            i = 0
            if offset + group[0].pos < arc:
                # offset + pos never decreases with pos, so bisect is exact
                i = bisect_left(group, arc, 1, key=lambda c: offset + c.pos)
            if i < len(group) and group[i] is exclude:
                i += 1
            if i < len(group):
                cand = group[i]
                return cand, offset + cand.pos - arc
        return None, math.inf

    def _follower_in_lane(self, link_idx, lane, arc, exclude=None):
        """Closest vehicle behind arc position `arc` in the given lane, up
        the chain of upstream links that have the lane. Returns (vehicle,
        center_distance)."""
        lanes = self._lanes
        for j, lane_here, offset in self._behind[link_idx, lane]:
            group = lanes.get((j, lane_here))
            if group:
                i = bisect_left(group, arc, key=lambda c: offset + c.pos) - 1
                if i >= 0 and group[i] is exclude:
                    i -= 1
                if i >= 0:
                    cand = group[i]
                    return cand, arc - (offset + cand.pos)
        return None, math.inf

    # -- spawning -----------------------------------------------------------

    def _try_insert(self, eid: str, factor: float) -> Vehicle | None:
        link_idx = self._entrance_link_idx[eid]
        link = self.route[link_idx]
        entrance = next(e for e in self.entrances if e.id == eid)
        limit = link.speed_limit_ms
        entry = limit if entrance.entry_speed is None else min(limit, entrance.entry_speed / 3.6)

        best = None
        length = self.cfg.vehicle_length
        entry_arc = self.offsets[link_idx] + length / 2.0
        for lane in range(1, link.lane_count + 1):
            occupants = self._lanes.get((link_idx, lane), ())
            clear = math.inf
            leader_speed = None
            if occupants:  # sorted by pos: first occupant is the nearest
                cand = occupants[0]
                clear = cand.pos - cand.length / 2.0 - length
                leader_speed = cand.speed
            # a fast vehicle closing in from upstream must get braking room
            fol, dist_r = self._follower_in_lane(link_idx, lane, entry_arc)
            rear_ok = True
            if fol is not None:
                rear_gap = dist_r - (fol.length + length) / 2.0
                v_entry_guess = min(entry, leader_speed) if leader_speed is not None else entry
                rear_ok = rear_gap > max(self._spawn_gap, 1.5 * (fol.speed - v_entry_guess))
            key = (not rear_ok, len(occupants), -clear)
            if best is None or key < best[0]:
                best = (key, lane, clear, leader_speed, rear_ok)
        _, lane, clear, leader_speed, rear_ok = best
        if clear < self._spawn_gap or not rear_ok:
            return None
        speed = entry
        if leader_speed is not None and clear < max(3.0 * speed, 20.0):
            speed = min(speed, leader_speed)
        veh = Vehicle(
            vid=self.next_vid,
            kind=KIND_BACKGROUND,
            link_idx=link_idx,
            lane=lane,
            pos=length / 2.0,
            speed=speed,
            length=length,
            factor=factor,
        )
        veh.next_lc_check = self.time + (veh.vid % 10) * 0.1 * LC_CHECK_INTERVAL
        self.next_vid += 1
        self._add(veh)
        self.log.spawns.append(
            SpawnEvent(time=self.time, vehicle_id=veh.vid, entrance=eid,
                       link=link.id, lane=lane)
        )
        return veh

    def _spawn_step(self):
        self._collect_arrivals()
        for e in self.entrances:
            q = self._queues[e.id]
            inserted = 0
            while q and inserted < self.route[self._entrance_link_idx[e.id]].lane_count:
                _t, factor = q[0]
                if self._try_insert(e.id, factor) is None:
                    break
                q.pop(0)
                inserted += 1

    def _subject_slot(self, occupants, link, length, margin):
        """First position along the lane (starting at the link entry) where
        the subject fits with `margin` clear on both bumpers. Returns
        (position, speed limit imposed by the vehicle ahead or None)."""
        candidate = length / 2.0
        for veh in occupants:  # sorted by position
            rear = veh.pos - veh.length / 2.0
            if rear - (candidate + length / 2.0) >= margin:
                return candidate, veh.speed
            candidate = veh.pos + veh.length / 2.0 + margin + length / 2.0
        if candidate + length / 2.0 <= link.length:
            return candidate, None
        return None, None

    def _insert_subject(self):
        link = self.route[0]
        length = self.cfg.vehicle_length
        margin = max(2.0, self._spawn_gap)
        best = None
        for lane in range(1, link.lane_count + 1):
            occupants = self._lanes.get((0, lane), ())
            pos, ahead_speed = self._subject_slot(occupants, link, length, margin)
            if pos is None:
                continue
            if best is None or pos < best[0]:
                best = (pos, lane, ahead_speed)
        if best is None:
            best = (length / 2.0, 1, 0.0)  # packed link: insert and let CF sort it out
        pos, lane, ahead_speed = best
        v0 = self.cfg.subject_desired_speed / 3.6
        speed = min(v0, link.speed_limit_ms)
        if ahead_speed is not None:
            speed = min(speed, max(ahead_speed, 0.0))
        veh = Vehicle(
            vid=SUBJECT_VID,
            kind=KIND_SUBJECT,
            link_idx=0,
            lane=lane,
            pos=pos,
            speed=speed,
            length=length,
            factor=1.0,
        )
        veh.next_lc_check = self.time
        self._add(veh)
        self.subject = veh
        self.log.spawns.append(
            SpawnEvent(time=self.time, vehicle_id=SUBJECT_VID, entrance="",
                       link=link.id, lane=lane)
        )

    # -- per-step dynamics --------------------------------------------------

    def add_vehicle(self, link_idx=0, lane=1, pos=10.0, speed=0.0, kind=KIND_BACKGROUND,
                    fixed=False, factor=1.0):
        """Insert a vehicle directly; used by tests and custom setups. A
        fixed vehicle keeps its speed and never changes lanes."""
        veh = Vehicle(
            vid=self.next_vid if kind == KIND_BACKGROUND else SUBJECT_VID,
            kind=kind,
            link_idx=link_idx,
            lane=lane,
            pos=pos,
            speed=speed,
            length=self.cfg.vehicle_length,
            factor=factor,
            fixed=fixed,
        )
        if kind == KIND_BACKGROUND:
            self.next_vid += 1
        else:
            self.subject = veh
        self._add(veh)
        return veh

    def _find_leaders(self):
        """The leader pass: set every vehicle's ``lead`` and ``lead_d`` from
        the lane index (see the module docstring)."""
        offsets = self.offsets
        ahead = self._ahead
        first_ahead = self._first_ahead
        for key, group in self._lanes.items():
            rear = group[0]
            for front in group[1:]:
                d = front.pos - rear.pos
                if d < rear.lead_d:
                    rear.lead = front
                    rear.lead_d = d
                rear = front
            # the last member: no other member of its group is at or ahead
            # of it unless its arc ties with the one before it, so its
            # chain starts at the next link
            link_idx, lane = key
            offset = offsets[link_idx]
            arc = offset + rear.pos
            chain = ahead[key]
            if chain[0][1] == lane and (len(group) < 2 or offset + group[-2].pos < arc):
                chain = chain[1:]
            front, d = first_ahead(chain, arc, rear)
            if d < rear.lead_d:
                rear.lead = front
                rear.lead_d = d

    def _decide(self):
        dt = self.dt
        t = self.time
        limits = self._limits
        log = self.log
        self._find_leaders()
        pending_targets = None  # built at the step's first side scan
        decisions = []
        append = decisions.append
        for v in self.vehicles:
            if v.fixed:
                append((v, 0.0, STAY))
                continue
            speed = v.speed
            v_des = v.v_des
            if v_des is None:
                v_des = limits[v.link_idx]
            v_des = v_des * v.factor
            lead = v.lead
            if lead is None:
                a = v.cf(speed, None, 0.0, v_des, v.accel, 0.0, dt)
            else:
                gap = v.lead_d - (v.length + lead.length) / 2.0
                if 0.05 > gap:
                    gap = 0.05
                a = v.cf(speed, gap, lead.speed, v_des, v.accel, lead.accel, dt)
            floor = -speed / dt
            if floor > a:
                a = floor

            direction = STAY
            if v.lc_start is None and t >= v.next_lc_check and t - v.lc_done_at >= LC_COOLDOWN:
                v.next_lc_check = t + LC_CHECK_INTERVAL
                log.lc_evaluations += 1
                # the exact skip (see the module docstring)
                bound = v.free_bound(speed, v_des, dt)
                if floor > bound:
                    bound = floor
                if bound - a > v.lc_threshold:
                    log.lc_scans += 1
                    if pending_targets is None:
                        offsets = self.offsets
                        pending_targets = [
                            (w.link_idx, w.lc_to, offsets[w.link_idx] + w.pos)
                            for w in self.vehicles
                            if w.lc_start is not None and not w.lc_switched
                        ]
                    direction = self._evaluate_lane_change(v, a, v_des, pending_targets)
            append((v, a, direction))
        return decisions

    def _evaluate_lane_change(self, v, a_current, v_des, pending):
        """Lane-change decision for `v`, whose current-lane acceleration is
        `a_current`, from a scan of the neighbour lanes."""
        dt = self.dt
        cf_model = self._cf_spec[v.kind]
        params = self._lc_spec[v.kind]
        arc = self.offsets[v.link_idx] + v.pos
        link = self.route[v.link_idx]
        sides = {}
        for name, lane in ((CHANGE_LEFT, v.lane + 1), (CHANGE_RIGHT, v.lane - 1)):
            if lane < 1 or lane > link.lane_count:
                sides[name] = None
                continue
            for p_link, p_lane, p_arc in pending:
                if p_link == v.link_idx and p_lane == lane and abs(p_arc - arc) < LC_CLEARANCE:
                    sides[name] = None
                    break
            else:
                lead, dist_f = self._leader_in_lane(v.link_idx, lane, arc, exclude=v)
                fol, dist_r = self._follower_in_lane(v.link_idx, lane, arc, exclude=v)
                leader = follower = None
                leader_accel = 0.0
                if lead is not None:
                    leader = (max(dist_f - (v.length + lead.length) / 2.0, 0.01), lead.speed)
                    leader_accel = lead.accel
                if fol is not None:
                    follower = (max(dist_r - (v.length + fol.length) / 2.0, 0.01), fol.speed)
                sides[name] = NeighborView(leader, follower, leader_accel)
        if sides[CHANGE_LEFT] is None and sides[CHANGE_RIGHT] is None:
            return STAY
        return lane_change_decision(
            v.speed, a_current, sides[CHANGE_LEFT], sides[CHANGE_RIGHT],
            params, cf_model, dt=dt, desired_speed=v_des, prev_accel=v.accel,
        )

    def _apply(self, decisions):
        """Integrate every vehicle one step, advance its lane-change ramp,
        move it across link ends and file it in a new lane index; a vehicle
        leaving the route's last link despawns. At a lane drop a vehicle in
        a lost lane moves into the last lane left, and a change toward a
        lost lane ends there."""
        dt = self.dt
        t = self.time
        t_next = t + dt
        half = LC_DURATION / 2.0
        ramp_rate = (LANE_WIDTH / 2.0) / half
        route = self.route
        lengths = self._lengths
        last_link = len(route) - 1
        log = self.log
        survivors = []
        self._lanes = {}
        file = self._file
        for v, a, direction in decisions:
            if direction != STAY and v.lc_start is None:
                target = v.lane + 1 if direction == CHANGE_LEFT else v.lane - 1
                v.lc_start = t
                v.lc_from = v.lane
                v.lc_to = target
                v.lc_switched = False
                log.lane_changes.append(
                    LaneChangeRecord(
                        time=t, vehicle_id=v.vid, link=route[v.link_idx].id,
                        from_lane=v.lane, to_lane=target,
                    )
                )
            speed = v.speed
            new_speed = speed + a * dt
            if not new_speed > 0.0:
                new_speed = 0.0
            v.accel = (new_speed - speed) / dt
            v.speed = new_speed
            v.pos += new_speed * dt

            if v.lc_start is not None:
                elapsed = t_next - v.lc_start
                sign = 1.0 if v.lc_to > v.lc_from else -1.0
                lat = v.lat
                if elapsed >= half and not v.lc_switched:
                    v.lane = v.lc_to
                    v.lc_switched = True
                    lat -= sign * LANE_WIDTH  # from here on, from the new lane
                if elapsed < half:
                    new_lat = sign * ramp_rate * elapsed
                elif elapsed < LC_DURATION:
                    new_lat = -sign * (LANE_WIDTH / 2.0) + sign * ramp_rate * (elapsed - half)
                else:
                    new_lat = 0.0
                    v.lc_start = None
                    v.lc_done_at = t_next
                v.lat_rate = (new_lat - lat) / dt
                v.lat = new_lat
            else:
                v.lat_rate = 0.0
                v.lat = 0.0

            while v.pos > lengths[v.link_idx]:
                if v.link_idx >= last_link:
                    log.despawns.append(DespawnEvent(time=t_next, vehicle_id=v.vid))
                    v.link_idx = -1
                    if v is self.subject:
                        self.subject = None
                    break
                v.pos -= lengths[v.link_idx]
                v.link_idx += 1
                lanes_here = route[v.link_idx].lane_count
                v.lane = min(v.lane, lanes_here)
                if v.lc_start is not None and v.lc_to > lanes_here:
                    # the target lane ends here: the change ends with it
                    v.lc_start = None
                    v.lc_done_at = t_next
                    v.lat = v.lat_rate = 0.0
            if v.link_idx >= 0:
                survivors.append(v)
                file(v)
        self.vehicles = survivors

    def _resolve_collisions(self):
        """Push back the rear vehicle of every overlapping pair in a physical
        lane; every vehicle is filed again if any moved.

        Each vehicle is in exactly one physical lane and a pushback moves
        only the rear of its pair, so every overlap can be found first, in
        one pass over the index, and resolved after, in (link, lane) order."""
        found = []
        for key, members in self._lanes.items():
            lane = key[1]
            rear = None
            for front in members:
                if front.lane != lane:
                    continue
                if rear is not None and front.pos - rear.pos - (front.length + rear.length) / 2.0 <= 0.0:
                    found.append((key, rear, front))
                rear = front
        overlapping = set()
        if found:
            t = self.time + self.dt
            found.sort(key=_key)
            for (link_idx, lane), rear, front in found:
                pair = (rear.vid, front.vid)
                overlapping.add(pair)
                if pair not in self._collision_pairs:
                    self.log.collisions.append(
                        CollisionEvent(
                            time=t, follower_id=rear.vid, leader_id=front.vid,
                            link=self.route[link_idx].id, lane=lane,
                        )
                    )
                rear.pos = max(
                    front.pos - (front.length + rear.length) / 2.0 - 0.1,
                    rear.length / 2.0,
                )
                if not rear.fixed:  # a fixed vehicle keeps its speed
                    rear.speed = 0.0
                    rear.accel = 0.0
            self._lanes = {}
            for v in self.vehicles:
                self._file(v)
        self._collision_pairs = overlapping

    def step(self, sink=None):
        """Advance the world by one time step; `sink` (default
        ``record_frame``) sees the vehicles after this step's insertions."""
        if self.step_index == self.warmup_steps:
            self._insert_subject()
        self._spawn_step()
        log = self.log
        n = len(self.vehicles)
        log.steps += 1
        log.vehicle_steps += n
        if not log.is_warmup(self.time):
            log.live_steps += 1
            log.live_vehicle_steps += n
        (record_frame if sink is None else sink)(self)
        self._apply(self._decide())
        self._resolve_collisions()

        if self.vehicles and all(v.speed < GRIDLOCK_SPEED for v in self.vehicles):
            self._gridlock_accum += self.dt
        else:
            self._gridlock_accum = 0.0

        self.step_index += 1
        self.time = self.step_index * self.dt

    def run(self, sink=None) -> TrajectoryLog:
        """Step to the horizon or to a gridlock, handing every step to `sink`
        (default ``record_frame``)."""
        while self.step_index < self.n_steps:
            self.step(sink)
            if self._gridlock_accum > GRIDLOCK_TIME:
                self.log.feasible = False
                self.log.gridlock_at = self.time
                break
        for eid in self.log.arrival_times:
            self.log.arrival_times[eid] = np.asarray(self.log.arrival_times[eid])
        return self.log


def run_scenario(config: ScenarioConfig, sink=None) -> TrajectoryLog:
    """Simulate one scenario, handing every step to `sink`; without one the
    log records every frame. Identical configs (same seed) give identical
    logs."""
    return Simulation(config).run(sink)
