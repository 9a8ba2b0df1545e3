"""Discrete-time microscopic traffic simulation.

Vehicles live on the subject-route link chain. Each step runs synchronously
from a pre-step snapshot: arrivals and insertions first, then car-following
and lane-change decisions for every vehicle against the snapshot, then one
explicit Euler integration with speed clamped at zero. Lane changes flip
the lane index at the midpoint of a fixed-duration lateral ramp so the
lateral offset stays continuous for the detection output.

Everything is driven by one seeded generator per entrance plus the scenario
seed, so an identical ScenarioConfig reproduces the run bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
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


class MissingSubjectError(RuntimeError):
    """The log has no subject vehicle where one is required."""


class Vehicle:
    __slots__ = (
        "vid", "kind", "link_idx", "lane", "pos", "lat", "speed", "accel",
        "length", "factor", "lc", "lc_start", "lc_from", "lc_to",
        "lc_switched", "lc_done_at", "next_lc_check", "lat_rate", "fixed",
    )

    def __init__(self, vid, kind, link_idx, lane, pos, speed, length, factor, lc,
                 fixed=False):
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
        self.lc = lc
        self.lc_start = None
        self.lc_from = 0
        self.lc_to = 0
        self.lc_switched = False
        self.lc_done_at = -1e9
        self.next_lc_check = 0.0
        self.lat_rate = 0.0
        self.fixed = fixed


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
    """Per-step vehicle snapshots plus spawn/despawn/lane-change/collision
    events. Frames before warmup_time are flagged warm-up and excluded from
    metric extraction."""

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

    @property
    def collision_count(self) -> int:
        return len(self.collisions)

    def is_warmup(self, t: float) -> bool:
        return t < self.warmup_time

    def live_frames(self):
        return [f for f in self.frames if not self.is_warmup(f.time)]

    def mean_density(self) -> float:
        """Post-warm-up mean vehicle density over the route, veh/km/lane."""
        lane_km = sum(
            length * lanes for length, lanes in zip(self.route_lengths, self.route_lane_counts)
        ) / 1000.0
        live = self.live_frames()
        if not live or lane_km <= 0:
            return 0.0
        return sum(len(f) for f in live) / len(live) / lane_km

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


class Simulation:
    """One scenario instance. Single-threaded and self-contained; multiple
    instances never share mutable state."""

    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        net = config.network
        self.route = [net.link(lid) for lid in net.subject_route]
        self.route_ids = tuple(l.id for l in self.route)
        self.offsets = np.zeros(len(self.route) + 1)
        for i, link in enumerate(self.route):
            self.offsets[i + 1] = self.offsets[i] + link.length
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
        self._cf_call = {k: m.accel for k, m in self._cf_spec.items()}
        self._model_vdes = {k: m.desired_speed for k, m in self._cf_spec.items()}
        self._spawn_gap = bg.car_following.spawn_gap

        self.dt = config.time_step
        self.n_steps = int(round(config.total_time / config.time_step))
        self.warmup_steps = int(round(config.warmup_time / config.time_step))
        self.time = 0.0
        self.step_index = 0
        self.vehicles: list[Vehicle] = []
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

    def _arc(self, v: Vehicle) -> float:
        return self.offsets[v.link_idx] + v.pos

    def _lane_map(self, dual: bool = False):
        """Vehicles per (link, lane), position-sorted. With dual=True a
        vehicle mid-lane-change occupies both its origin and target lane, so
        gap checks respect it on either side; collision resolution uses the
        physical lane index only."""
        groups: dict[tuple[int, int], list[Vehicle]] = {}
        for v in self.vehicles:
            if dual and v.lc_start is not None:
                lanes = {v.lane, v.lc_from, v.lc_to}
            else:
                lanes = (v.lane,)
            for lane in lanes:
                groups.setdefault((v.link_idx, lane), []).append(v)
        for g in groups.values():
            g.sort(key=lambda v: v.pos)
        return groups

    def _leader_in_lane(self, groups, link_idx, lane, arc, exclude=None):
        """Closest vehicle ahead of arc position `arc` in the given lane,
        following the chain downstream. Returns (vehicle, center_distance)."""
        lanes_here = lane
        for j in range(link_idx, min(link_idx + LOOKAHEAD_LINKS + 1, len(self.route))):
            lanes_here = min(lanes_here, self.route[j].lane_count)
            for cand in groups.get((j, lanes_here), ()):  # sorted by pos
                if cand is exclude:
                    continue
                c_arc = self.offsets[j] + cand.pos
                if c_arc > arc:
                    return cand, c_arc - arc
        return None, math.inf

    def _follower_in_lane(self, groups, link_idx, lane, arc, exclude=None):
        lanes_here = lane
        for j in range(link_idx, max(link_idx - LOOKAHEAD_LINKS - 1, -1), -1):
            if j < link_idx:
                lanes_here = lane  # upstream links in this chain keep lane ids
                if lane > self.route[j].lane_count:
                    break
            for cand in reversed(groups.get((j, lanes_here), ())):
                if cand is exclude:
                    continue
                c_arc = self.offsets[j] + cand.pos
                if c_arc < arc:
                    return cand, arc - c_arc
        return None, math.inf

    def _bumper(self, center_dist, a: Vehicle, b: Vehicle) -> float:
        return center_dist - (a.length + b.length) / 2.0

    def _desired_speed(self, v: Vehicle) -> float:
        base = self._model_vdes[v.kind]
        if base is None:
            base = self.route[v.link_idx].speed_limit_ms
        return base * v.factor

    # -- spawning -----------------------------------------------------------

    def _try_insert(self, eid: str, factor: float) -> Vehicle | None:
        link_idx = self._entrance_link_idx[eid]
        link = self.route[link_idx]
        entrance = next(e for e in self.entrances if e.id == eid)
        groups = self._lane_map(dual=True)
        limit = link.speed_limit_ms
        entry = limit if entrance.entry_speed is None else min(limit, entrance.entry_speed / 3.6)

        best = None
        length = self.cfg.vehicle_length
        entry_arc = self.offsets[link_idx] + length / 2.0
        for lane in range(1, link.lane_count + 1):
            occupants = groups.get((link_idx, lane), ())
            clear = math.inf
            leader_speed = None
            if occupants:  # sorted by pos: first occupant is the nearest
                cand = occupants[0]
                clear = cand.pos - cand.length / 2.0 - length
                leader_speed = cand.speed
            # a fast vehicle closing in from upstream must get braking room
            fol, dist_r = self._follower_in_lane(groups, link_idx, lane, entry_arc)
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
            lc=self._lc_spec[KIND_BACKGROUND],
        )
        veh.next_lc_check = self.time + (veh.vid % 10) * 0.1 * LC_CHECK_INTERVAL
        self.next_vid += 1
        self.vehicles.append(veh)
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
        groups = self._lane_map(dual=True)
        length = self.cfg.vehicle_length
        margin = max(2.0, self._spawn_gap)
        best = None
        for lane in range(1, link.lane_count + 1):
            occupants = groups.get((0, lane), ())
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
            lc=self._lc_spec[KIND_SUBJECT],
        )
        veh.next_lc_check = self.time
        self.vehicles.append(veh)
        self.log.spawns.append(
            SpawnEvent(time=self.time, vehicle_id=SUBJECT_VID, entrance="",
                       link=link.id, lane=lane)
        )

    # -- per-step dynamics --------------------------------------------------

    def _leader_downstream(self, groups, link_idx, lane, v):
        """Nearest vehicle ahead on following links, for the head of a lane
        group."""
        base = self.offsets[link_idx] + v.pos
        lanes_here = lane
        for j in range(link_idx + 1, min(link_idx + LOOKAHEAD_LINKS + 1, len(self.route))):
            lanes_here = min(lanes_here, self.route[j].lane_count)
            group = groups.get((j, lanes_here))
            if group:
                cand = group[0]
                if cand is not v:
                    return cand, self.offsets[j] + cand.pos - base
                if len(group) > 1:
                    return group[1], self.offsets[j] + group[1].pos - base
        return None, math.inf

    def _leader_table(self, groups):
        """Per-vehicle nearest leader over every lane the vehicle occupies,
        built in one pass over the lane groups."""
        best: dict[Vehicle, tuple] = {}
        for (li, lane), group in groups.items():
            n = len(group)
            for i, v in enumerate(group):
                if i + 1 < n:
                    cand = group[i + 1]
                    d = cand.pos - v.pos
                else:
                    cand, d = self._leader_downstream(groups, li, lane, v)
                if cand is None:
                    continue
                cur = best.get(v)
                if cur is None or d < cur[1]:
                    best[v] = (cand, d)
        return best

    def add_vehicle(self, link_idx=0, lane=1, pos=10.0, speed=0.0, kind=KIND_BACKGROUND,
                    fixed=False, lc=None, factor=1.0):
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
            lc=lc if lc is not None else self._lc_spec[kind],
            fixed=fixed,
        )
        if kind == KIND_BACKGROUND:
            self.next_vid += 1
        self.vehicles.append(veh)
        return veh

    def _decide(self, groups):
        dt = self.dt
        decisions = []
        pending_targets = [
            (v.link_idx, v.lc_to, self._arc(v))
            for v in self.vehicles
            if v.lc_start is not None and not v.lc_switched
        ]
        leader_table = self._leader_table(groups)
        for v in self.vehicles:
            if v.fixed:
                decisions.append((v, 0.0, STAY))
                continue
            arc = self._arc(v)
            hit = leader_table.get(v)
            if hit is not None:
                lead, dist = hit
                gap = self._bumper(dist, v, lead)
                leader_tuple = (max(gap, 0.05), lead.speed, lead.accel)
            else:
                leader_tuple = None
            v_des = self._desired_speed(v)
            cf = self._cf_call[v.kind]
            if leader_tuple is None:
                a = cf(v.speed, None, 0.0, v_des, v.accel, 0.0, dt)
            else:
                a = cf(v.speed, leader_tuple[0], leader_tuple[1], v_des,
                       v.accel, leader_tuple[2], dt)
            a = max(a, -v.speed / dt)

            direction = STAY
            if (
                v.lc_start is None
                and self.time >= v.next_lc_check
                and self.time - v.lc_done_at >= LC_COOLDOWN
            ):
                v.next_lc_check = self.time + LC_CHECK_INTERVAL
                direction = self._evaluate_lane_change(
                    v, groups, arc, leader_tuple, v_des, pending_targets
                )
            decisions.append((v, a, direction))
        return decisions

    def _evaluate_lane_change(self, v, groups, arc, current_leader, v_des, pending):
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
                lead, dist_f = self._leader_in_lane(groups, v.link_idx, lane, arc, exclude=v)
                fol, dist_r = self._follower_in_lane(groups, v.link_idx, lane, arc, exclude=v)
                leader = None
                follower = None
                if lead is not None:
                    leader = (max(self._bumper(dist_f, v, lead), 0.01), lead.speed)
                if fol is not None:
                    follower = (max(self._bumper(dist_r, v, fol), 0.01), fol.speed)
                sides[name] = NeighborView(leader=leader, follower=follower)
        if sides[CHANGE_LEFT] is None and sides[CHANGE_RIGHT] is None:
            return STAY
        cur = None if current_leader is None else (current_leader[0], current_leader[1])
        return lane_change_decision(
            v.speed, cur, sides[CHANGE_LEFT], sides[CHANGE_RIGHT],
            v.lc, self._cf_spec[v.kind], dt=self.dt, desired_speed=v_des,
        )

    def _apply(self, decisions):
        dt = self.dt
        t = self.time
        half = LC_DURATION / 2.0
        ramp_rate = (LANE_WIDTH / 2.0) / half
        for v, a, direction in decisions:
            if direction != STAY and v.lc_start is None:
                target = v.lane + 1 if direction == CHANGE_LEFT else v.lane - 1
                v.lc_start = t
                v.lc_from = v.lane
                v.lc_to = target
                v.lc_switched = False
                self.log.lane_changes.append(
                    LaneChangeRecord(
                        time=t, vehicle_id=v.vid, link=self.route[v.link_idx].id,
                        from_lane=v.lane, to_lane=target,
                    )
                )
            new_speed = max(0.0, v.speed + a * dt)
            v.accel = (new_speed - v.speed) / dt
            v.speed = new_speed
            v.pos += new_speed * dt

            if v.lc_start is not None:
                elapsed = t + dt - v.lc_start
                sign = 1.0 if v.lc_to > v.lc_from else -1.0
                if elapsed < half:
                    new_lat = sign * ramp_rate * elapsed
                elif elapsed < LC_DURATION:
                    if not v.lc_switched:
                        v.lane = v.lc_to
                        v.lc_switched = True
                    new_lat = -sign * (LANE_WIDTH / 2.0) + sign * ramp_rate * (elapsed - half)
                else:
                    if not v.lc_switched:
                        v.lane = v.lc_to
                        v.lc_switched = True
                    new_lat = 0.0
                    v.lc_start = None
                    v.lc_done_at = t + dt
                v.lat_rate = (new_lat - v.lat) / dt
                v.lat = new_lat
            else:
                v.lat_rate = 0.0
                v.lat = 0.0

    def _advance_links(self):
        t = self.time + self.dt
        survivors = []
        for v in self.vehicles:
            while v.pos > self.route[v.link_idx].length:
                if v.link_idx + 1 >= len(self.route):
                    self.log.despawns.append(DespawnEvent(time=t, vehicle_id=v.vid))
                    v.link_idx = -1
                    break
                v.pos -= self.route[v.link_idx].length
                v.link_idx += 1
                v.lane = min(v.lane, self.route[v.link_idx].lane_count)
            if v.link_idx >= 0:
                survivors.append(v)
        self.vehicles = survivors

    def _resolve_collisions(self):
        t = self.time + self.dt
        groups = self._lane_map()
        overlapping = set()
        for (link_idx, lane), group in sorted(groups.items()):
            for rear, front in zip(group[:-1], group[1:]):
                gap = front.pos - rear.pos - (front.length + rear.length) / 2.0
                if gap <= 0.0:
                    key = (rear.vid, front.vid)
                    overlapping.add(key)
                    if key not in self._collision_pairs:
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
                    rear.speed = 0.0
                    rear.accel = 0.0
        self._collision_pairs = overlapping

    def _record_frame(self):
        vs = sorted(self.vehicles, key=lambda v: v.vid)
        ids, kinds, links, lanes = [], [], [], []
        pos, lat, speed, accel, heading, length = [], [], [], [], [], []
        for v in vs:
            ids.append(v.vid)
            kinds.append(v.kind)
            links.append(v.link_idx)
            lanes.append(v.lane)
            pos.append(v.pos)
            lat.append(v.lat)
            speed.append(v.speed)
            accel.append(v.accel)
            heading.append(
                math.degrees(math.atan2(v.lat_rate, v.speed))
                if v.lat_rate != 0.0 and v.speed > 0.5
                else 0.0
            )
            length.append(v.length)
        self.log.frames.append(
            Frame(
                time=self.time,
                ids=np.asarray(ids, dtype=np.int32),
                kinds=np.asarray(kinds, dtype=np.int8),
                link_idx=np.asarray(links, dtype=np.int16),
                lanes=np.asarray(lanes, dtype=np.int16),
                pos=np.asarray(pos, dtype=np.float64),
                lat=np.asarray(lat, dtype=np.float64),
                speed=np.asarray(speed, dtype=np.float64),
                accel=np.asarray(accel, dtype=np.float64),
                heading=np.asarray(heading, dtype=np.float64),
                length=np.asarray(length, dtype=np.float64),
            )
        )

    def step(self):
        """Advance the world by one time step."""
        if self.step_index == self.warmup_steps:
            self._insert_subject()
        self._spawn_step()
        self._record_frame()
        groups = self._lane_map(dual=True)
        decisions = self._decide(groups)
        self._apply(decisions)
        self._advance_links()
        self._resolve_collisions()

        if self.vehicles and all(v.speed < GRIDLOCK_SPEED for v in self.vehicles):
            self._gridlock_accum += self.dt
        else:
            self._gridlock_accum = 0.0

        self.step_index += 1
        self.time = self.step_index * self.dt

    def run(self) -> TrajectoryLog:
        while self.step_index < self.n_steps:
            self.step()
            if self._gridlock_accum > GRIDLOCK_TIME:
                self.log.feasible = False
                self.log.gridlock_at = self.time
                break
        for eid in self.log.arrival_times:
            self.log.arrival_times[eid] = np.asarray(self.log.arrival_times[eid])
        return self.log


def run_scenario(config: ScenarioConfig) -> TrajectoryLog:
    """Simulate one scenario; identical configs (same seed) give identical
    logs."""
    return Simulation(config).run()
