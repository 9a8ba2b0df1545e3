"""Discrete-time microscopic traffic simulation of a batch of cases.

A batch is a list of scenario configs that share their network, time step,
warm-up, horizon, vehicle length and detection range; ``run_batch`` steps
every case of it together, and ``run_scenario`` is a batch of one. Each case
keeps its own arrival generators (one seeded generator per entrance plus the
scenario seed), its own vehicles and its own log, so a case gives the same
log in any batch and an identical ScenarioConfig reproduces its run bit for
bit.

State lives in numpy arrays, one row per vehicle (``FLOAT_FIELDS`` and
``INT_FIELDS``: link, lane, pos, speed, accel, lateral offset and rate,
lane-change timers, desired speed, kind, case), in insertion order over
the whole batch: a new vehicle's row is the last row, whatever its case,
and a vehicle that leaves takes its row with it. Each step runs
synchronously from a pre-step snapshot, in this order: insert the subject
(at the end of warm-up) and queued arrivals; count the step on each case's
log and hand the batch to the sink; find every vehicle's leader, then take
car-following and lane-change decisions for every vehicle against the
snapshot; integrate once (explicit Euler, speed clamped at zero) and move
vehicles across link ends; sort the lane index; push back overlapping
vehicles. Lane changes flip the lane at the midpoint of a fixed-duration
lateral ramp so the lateral offset stays continuous for the detection
output.

The lane index lists every vehicle by (case, link, lane, pos), from one
stable ``np.lexsort`` per step taken after the move. Its tie rules:

* a vehicle mid-lane-change is a member of its origin and its target lane;
* members at an equal pos are in insertion order, and the next step's
  insertions are merged into the index after the members already there;
* a step in which no vehicle changed lanes or link, entered or left, and
  every group is still strictly increasing in pos keeps the last sort;
  a step whose pushback moved a vehicle sorts again, and so does a case
  dropping out of the batch.

A vehicle's leader (at centre distance ``lead_d``) is the next member of its
(link, lane) group. The last member of a group looks downstream along its
lane's chain of groups: the lane id, capped at each link's lane count, for
up to ``LOOKAHEAD_LINKS`` more links (see ``_first_in_chain``). A vehicle in two
lanes keeps the nearer leader; on a tie, the one of the group met first,
that is the group whose earliest-inserted member was inserted first (of a
vehicle's two lanes, the lower one first).

Car-following is evaluated for all vehicles at once, by each family's
``accel_rows`` (one call per family present in the batch) on the terms of
each vehicle's model. A vehicle due a lane-change evaluation compares its
sides with the acceleration ``a`` just decided for it in its current lane.
No side can pay off when ``max(free, -v/dt) - a`` is at most the advantage
threshold, ``free`` being the family's bound from the same call, since no
leader in a target lane can demand more than that; the vehicle then stays
without a neighbour-lane scan. The skip is exact: the full evaluation would
also decide to stay. The skip is one array mask. The vehicles it lets
through look up their neighbours per vehicle, right side first, and the
accelerations behind every side found in a step come from one more
car-following call. One scalar pass over those sides then takes, per
vehicle, a side that ``LaneChangeParams.accepts``, the one with the larger
advantage when both are accepted, right on a tie. The insertions, the
lane-change ramps, the link crossings and the pushbacks also go through
Python per vehicle.

A sink is a callable that takes the simulation once per step, after the
step's insertions, and reads the rows of every running case (``active``,
``floats`` and ``ints``, and a column per field name).
``record_frame``, the default, stores a ``Frame`` per case and step in
``TrajectoryLog.frames``; the virtual detector (``detector.py``) keeps each
live step's detection windows of the whole batch. A sink returns the running
cases it found without a subject on a live step, or None: each of them drops
out of the batch with a ``MissingSubjectError`` in ``log.stopped_by``, and
its batch-mates go on. A case that gridlocks drops out the same way. An
exception a sink raises propagates out of the run. The log's counters do not
depend on the sink.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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

# the per-vehicle arrays, one row per vehicle: floats, then integers (flags
# as 0/1). v_des is the desired speed: the model's ``desired_speed`` on the
# vehicle's link times factor, set when the vehicle enters the link.
# link_end and arc0 are the length and route offset of the vehicle's link,
# gbase its lane group's key less the lane, slot the index of its models
# (2 * case + kind), whose car-following terms are column slot of
# ``Simulation._terms``. lc_due_at is the first step time at which a
# lane-change evaluation is due: set at insertion, then
# LC_CHECK_INTERVAL after each evaluation, and the first step time
# LC_COOLDOWN after the end of a change; inf while a vehicle changes lanes
# and for a fixed vehicle. Every vehicle of a batch has the same length,
# ``Simulation.vehicle_length``.
FLOAT_FIELDS = (
    "pos", "lat", "speed", "accel", "lat_rate", "factor", "v_des",
    "lc_start", "lc_due_at", "link_end", "arc0",
)
INT_FIELDS = (
    "vid", "kind", "case", "slot", "link", "lane",
    "lc_from", "lc_to", "lc_switched", "fixed", "gbase",
)
FLOAT_COLUMN = {name: k for k, name in enumerate(FLOAT_FIELDS)}
INT_COLUMN = {name: k for k, name in enumerate(INT_FIELDS)}
_POS, _SPEED, _ACCEL, _V_DES = (
    FLOAT_COLUMN[name] for name in ("pos", "speed", "accel", "v_des")
)
_SLOT, _LINK, _LANE, _LC_SWITCHED = (
    INT_COLUMN[name] for name in ("slot", "link", "lane", "lc_switched")
)
# lc_start is nan while a vehicle is not changing lanes
_NEW_FLOATS = dict(lat=0.0, accel=0.0, lat_rate=0.0, lc_start=math.nan)
_NEW_INTS = dict(lc_from=0, lc_to=0, lc_switched=0)
# two route positions closer than this may round to the same arc position
_TIE = 1e-9


class MissingSubjectError(RuntimeError):
    """No subject vehicle where one is required. ``log`` is the log of the
    run that stopped, up to the step that lacked the subject."""

    def __init__(self, message: str, log: TrajectoryLog | None = None):
        super().__init__(message)
        self.log = log


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
    did not settle, which scan the neighbour lanes. ``stopped_by`` is the
    ``MissingSubjectError`` that ended the run at a live step on which its
    sink found no subject, or None."""

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
    stopped_by: Exception | None = field(default=None, compare=False, repr=False)

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


def heading_deg(lat_rate: float, speed: float) -> float:
    """Angle of a vehicle's motion to the road direction, 0 unless it is
    moving sideways above 0.5 m/s."""
    if lat_rate != 0.0 and speed > 0.5:
        return math.degrees(math.atan2(lat_rate, speed))
    return 0.0


def heading_rows(lat_rate: np.ndarray, speed: np.ndarray) -> np.ndarray:
    """``heading_deg`` of each element of `lat_rate` and `speed`."""
    heading = np.zeros(len(lat_rate))
    for i in lat_rate.nonzero()[0].tolist():  # 0 when not moving sideways
        heading[i] = heading_deg(lat_rate.item(i), speed.item(i))
    return heading


def record_frame(sim: Simulation) -> None:
    """The recording sink: append each running case's vehicles, in id order,
    to its log's frames."""
    for c in sim.active:
        (rows,) = (sim.case == c).nonzero()
        order = rows[np.argsort(sim.vid[rows], kind="stable")]
        speed = sim.speed[order]
        sim.logs[c].frames.append(
            Frame(
                time=sim.time,
                ids=sim.vid[order].astype(np.int32),
                kinds=sim.kind[order].astype(np.int8),
                link_idx=sim.link[order].astype(np.int16),
                lanes=sim.lane[order].astype(np.int16),
                pos=sim.pos[order],
                lat=sim.lat[order],
                speed=speed,
                accel=sim.accel[order],
                heading=heading_rows(sim.lat_rate[order], speed),
                length=np.full(len(order), sim.vehicle_length),
            )
        )


class _Case:
    """One case's scalar state: its config and log, arrival generators and
    queues, models, and the counters that carry over between steps."""

    def __init__(self, config: ScenarioConfig, entrance_ids, log: TrajectoryLog):
        self.cfg = config
        self.log = log
        bg = config.behavior["background"]
        subj = config.subject_behavior()
        self.cf = (bg.car_following, subj.car_following)  # by kind
        self.lc = (bg.lane_change, subj.lane_change)
        self.spawn_gap = bg.car_following.spawn_gap
        seed = int(config.seed) & 0xFFFFFFFFFFFFFFFF
        self.entrance_ids = entrance_ids
        self.rngs = [np.random.default_rng([seed, i]) for i in range(len(entrance_ids))]
        self.rates = [config.entrance_inputs.get(eid, 0.0) / 3600.0 for eid in entrance_ids]
        self.next_arrival = [self._draw(i, 0.0) for i in range(len(entrance_ids))]
        self.first_arrival = min(self.next_arrival, default=math.inf)
        self.queues = [deque() for _ in entrance_ids]
        self.queued = 0
        self.next_vid = 1
        self.collision_pairs: set = set()
        self.gridlock_accum = 0.0

    def _draw(self, i: int, after: float) -> float:
        rate = self.rates[i]
        if rate <= 0.0:
            return math.inf
        return after + self.rngs[i].exponential(1.0 / rate)

    def collect_arrivals(self, horizon: float) -> None:
        """Queue the desired-speed factor of every arrival before
        `horizon`."""
        if not self.first_arrival < horizon:
            return
        variation = self.cfg.speed_variation
        for i, eid in enumerate(self.entrance_ids):
            while self.next_arrival[i] < horizon:
                t_arr = self.next_arrival[i]
                factor = 1.0
                if variation > 0.0:
                    factor = 1.0 + self.rngs[i].uniform(-variation, variation)
                self.queues[i].append(factor)
                self.queued += 1
                self.log.arrival_times[eid].append(t_arr)
                self.next_arrival[i] = self._draw(i, t_arr)
        self.first_arrival = min(self.next_arrival)


class Simulation:
    """A batch of scenario instances stepped together; the cases share
    their network, time step, warm-up, horizon, vehicle length and
    detection range. Single-threaded and self-contained; instances never
    share mutable state. A sink reads ``active``, the cases still running,
    and the rows ``floats`` and ``ints``, in insertion order (the ``case``
    column tells the cases apart). ``add_vehicle``, ``row`` and ``vehicle``
    serve tests and custom setups."""

    def __init__(self, configs):
        self.configs = list(configs)
        if not self.configs:
            raise ValueError("a batch needs at least one case")
        first = self.configs[0]
        for cfg in self.configs[1:]:
            for name in ("network", "time_step", "warmup_time", "total_time", "vehicle_length",
                         "detection_range"):
                if getattr(cfg, name) != getattr(first, name):
                    raise ValueError(f"the cases of a batch must share their {name}")
        net = first.network
        self.route = net.route_links()
        self.route_ids = tuple(l.id for l in self.route)
        self.offsets = net.route_offsets()
        self._lengths = [l.length for l in self.route]
        self._counts = [l.lane_count for l in self.route]
        self._limits = [l.speed_limit_ms for l in self.route]
        self._entrances = sorted(net.entrances, key=lambda e: e.id)
        route_index = {lid: i for i, lid in enumerate(self.route_ids)}
        self._entrance_link = [route_index[e.link] for e in self._entrances]
        self._entry_speed = []
        for e, link_idx in zip(self._entrances, self._entrance_link):
            limit = self.route[link_idx].speed_limit_ms
            self._entry_speed.append(
                limit if e.entry_speed is None else min(limit, e.entry_speed / 3.6)
            )

        self.dt = first.time_step
        self.vehicle_length = float(first.vehicle_length)
        self.n_steps = int(round(first.total_time / first.time_step))
        self.warmup_steps = int(round(first.warmup_time / first.time_step))
        self.time = 0.0
        self.step_index = 0

        # a lane group's key: (case * links + link) * stride + lane
        self._n_links = len(self.route)
        self._stride = max(self._counts) + 1
        self._case_stride = self._n_links * self._stride
        self._n_groups = len(self.configs) * self._case_stride
        self._ahead, self._behind = self._lane_chains()
        self._targets_seen = {}

        entrance_ids = [e.id for e in self._entrances]
        self.logs = []
        self._cases = []
        for cfg in self.configs:
            log = TrajectoryLog(
                time_step=self.dt,
                warmup_time=cfg.warmup_time,
                route_link_ids=self.route_ids,
                route_lane_counts=tuple(self._counts),
                route_lengths=tuple(self._lengths),
                arrival_times={eid: [] for eid in entrance_ids},
            )
            self.logs.append(log)
            self._cases.append(_Case(cfg, entrance_ids, log))
        # a vehicle's slot, 2 * case + kind, picks its models
        self._models = [m for case in self._cases for m in case.cf]
        self._lane_change = [lc for case in self._cases for lc in case.lc]
        self._thresholds = np.asarray([lc.advantage_threshold for lc in self._lane_change])
        # the car-following terms of each slot's model, a column per slot
        # (nan past the last term of a family), and the families present
        width = max(len(m.terms) for m in self._models)
        self._terms = np.array([m.terms + (math.nan,) * (width - len(m.terms))
                                for m in self._models]).T.copy()
        self._families = list(dict.fromkeys((type(m), len(m.terms)) for m in self._models))
        self._slot_family = np.asarray(
            [self._families.index((type(m), len(m.terms))) for m in self._models]
        )
        self.active = list(range(len(self.configs)))
        self._n_fixed = 0
        self._lateral = False  # some vehicle may have a lateral offset or rate

        # row storage with room to grow; the first n rows are the vehicles
        self._float_store = np.empty((64, len(FLOAT_FIELDS)))
        self._int_store = np.empty((64, len(INT_FIELDS)), dtype=np.int64)
        self._n = 0
        self._vehicles = [0] * len(self.configs)  # per case
        self._bind()
        # the lane index: each sorted entry's row, group key and pos
        self._order = np.empty(0, dtype=np.int64)
        self._keys = np.empty(0, dtype=np.int64)
        self._epos = np.empty(0)
        self._pairs = None  # the two sorted entries of each two-lane vehicle
        self._restructured = True  # since the last sort
        self._key_list = None
        self._group_ids = np.arange(self._n_groups + 2)
        self._derive()

    # -- geometry -----------------------------------------------------------

    def _lane_chains(self):
        """For each (link, lane), with lanes up to the route's widest link:
        the (link, lane, offset) groups that ``_first_in_chain`` walks
        downstream and ``_follower`` walks upstream."""
        route = self.route
        n = len(route)
        ahead, behind = {}, {}
        for link_idx in range(n):
            for lane in range(1, self._stride):
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

    def _targets(self, groups):
        """Where the last members of the nonempty groups `groups` (sorted
        keys) find their leaders: per group, the rank in `groups` of the
        first nonempty group along its chain after its own link
        (len(groups) for none); and the ranks whose lane its link lacks.
        Worked out once per set of groups."""
        sig = groups.tobytes()
        found = self._targets_seen.get(sig)
        if found is None:
            keys = groups.tolist()
            rank = {g: i for i, g in enumerate(keys)}
            to, odd = [], []
            for i, g in enumerate(keys):
                local = g % self._case_stride
                link_idx, lane = divmod(local, self._stride)
                if lane > self._counts[link_idx]:
                    odd.append(i)
                for j, lane_here, _offset in self._ahead[link_idx, lane][1:]:
                    k = rank.get(g - local + j * self._stride + lane_here)
                    if k is not None:
                        to.append(k)
                        break
                else:
                    to.append(len(keys))
            if len(self._targets_seen) > 4096:
                self._targets_seen.clear()
            found = self._targets_seen[sig] = (np.asarray(to, dtype=np.int64), odd)
        return found

    # -- rows ---------------------------------------------------------------

    def _bind(self) -> None:
        """Point the row arrays at the first n stored rows, and each field
        name at its column."""
        self.floats = self._float_store[:self._n]
        self.ints = self._int_store[:self._n]
        columns = dict(zip(FLOAT_FIELDS, self.floats.T))
        columns.update(zip(INT_FIELDS, self.ints.T))
        self.__dict__.update(columns)
        # every row's car-following groups for ``_car_following``, worked out
        # when the rows change: per step, the take alone is a quarter of a
        # small batch's car following
        self._groups = [(cls, of, tuple(terms)) for cls, of, terms in self._groups_of(self.slot)]

    def _insert_row(self, c: int, kind: int, link: int, lane: int, pos: float, **values) -> None:
        """Store a vehicle of case `c` after every row and merge it into the
        lane index's lists, after any members of its group at an equal pos;
        ``_settle_rows`` then makes the rows and the index whole."""
        desired = self._cases[c].cf[kind].desired_speed(self._limits[link])
        values.update(
            kind=kind, case=c, slot=2 * c + kind, link=link, lane=lane, pos=pos,
            v_des=desired * values["factor"], link_end=self._lengths[link], arc0=self.offsets[link],
            gbase=(c * self._n_links + link) * self._stride,
        )
        r = self._n
        if r == len(self._float_store):
            self._float_store = np.concatenate((self._float_store, np.empty_like(self._float_store)))
            self._int_store = np.concatenate((self._int_store, np.empty_like(self._int_store)))
        self._float_store[r] = [values.get(f, _NEW_FLOATS.get(f)) for f in FLOAT_FIELDS]
        self._int_store[r] = [values.get(f, _NEW_INTS.get(f)) for f in INT_FIELDS]
        self._n = r + 1
        order, positions, starts = self._index_lists()
        if self._key_list is None:
            self._key_list = self._keys.tolist()
        g = values["gbase"] + lane
        at = bisect_right(positions, pos, starts[g], starts[g + 1])
        order.insert(at, r)
        positions.insert(at, pos)
        self._key_list.insert(at, g)
        for k in range(g + 1, len(starts)):
            starts[k] += 1
        if self._pairs is not None:
            rows, first, second = self._pairs
            self._pairs = (rows, first + (first >= at), second + (second >= at))
        self._vehicles[c] += 1

    def _settle_rows(self) -> None:
        """After insertions: take in the new rows and rebuild the lane
        index's arrays from its lists."""
        order, positions, _starts = self._lists
        self._order = np.asarray(order, dtype=np.int64)
        self._keys = np.asarray(self._key_list, dtype=np.int64)
        self._epos = np.asarray(positions)
        self._bind()
        self._derive()

    def _drop_rows(self, keep: np.ndarray) -> None:
        """Keep only the rows where `keep` holds, in their order; the lane
        index is stale until the next ``_sort``."""
        counts = np.bincount(self.case[~keep], minlength=len(self.configs)).tolist()
        self._vehicles = [n - gone for n, gone in zip(self._vehicles, counts)]
        self._restructured = True
        n = int(np.count_nonzero(keep))
        self._float_store[:n] = self.floats[keep]
        self._int_store[:n] = self.ints[keep]
        self._n = n
        self._bind()

    def _drop_cases(self, cases) -> None:
        self.active = [c for c in self.active if c not in cases]
        self._drop_rows(~np.isin(self.case, list(cases)))
        self._sort()

    def row(self, vid: int, case: int = 0) -> int:
        """The row of vehicle `vid` of `case`."""
        (rows,) = ((self.case == case) & (self.vid == vid)).nonzero()
        if not len(rows):
            raise KeyError(f"no vehicle {vid} in case {case}")
        return int(rows[0])

    def vehicle(self, vid: int, case: int = 0) -> dict:
        """The state of vehicle `vid` of `case` as {field: value}, in plain
        Python values."""
        r = self.row(vid, case)
        return {
            **dict(zip(FLOAT_FIELDS, self.floats[r].tolist())),
            **dict(zip(INT_FIELDS, self.ints[r].tolist())),
        }

    # -- lane index -----------------------------------------------------------

    def _sort(self) -> None:
        """Sort the lane index: every vehicle in its lane, a vehicle
        mid-lane-change in its other lane too, each group by pos, ties in
        row order. When no vehicle changed lanes or link, entered or left
        since the last sort, and every group is still strictly increasing in
        pos, the last sort holds and only the positions are taken again."""
        if not self._restructured and self._keep_order():
            return
        changing = (self.lc_start == self.lc_start).nonzero()[0]
        keys = self.gbase + self.lane
        if len(changing):
            # the second entries go after the rows; the row breaks ties
            n, k = len(keys), len(changing)
            # the other lane of a change is lc_from + lc_to - lane
            base = self.gbase[changing]
            other = 2 * base + self.lc_from[changing] + self.lc_to[changing] - keys[changing]
            keys = np.concatenate((keys, other))
            rows = np.concatenate((np.arange(n), changing))
            positions = np.concatenate((self.pos, self.pos[changing]))
            perm = np.lexsort((rows, positions, keys))
            self._order = rows[perm]
            self._epos = positions[perm]
            at = np.empty(n + k, dtype=np.int64)
            at[perm] = np.arange(n + k)
            self._pairs = (changing, at[changing], at[n:])
        else:
            self._order = perm = np.lexsort((self.pos, keys))
            self._epos = self.pos[perm]
            self._pairs = None
        self._keys = keys[perm]
        self._restructured = False
        self._derive()

    def _keep_order(self) -> bool:
        positions = self.pos[self._order]
        gap = positions[1:] - positions[:-1]
        gap[self._ends[:-1]] = math.inf
        least = gap.min() if len(gap) else math.inf
        if not least > 0.0:
            return False
        self._epos = positions
        self._take_positions(gap, least)
        return True

    def _derive(self) -> None:
        """From the sorted index: each group's last entry and the rows with
        a stand-in for "no leader" (a new structure), then the positions."""
        keys = self._keys
        m = len(keys)
        self._order_ext = np.empty(m + 1, dtype=np.int64)
        self._order_ext[:m] = self._order
        self._order_ext[m] = -1
        self._arc_ext = np.empty(m + 1)
        self._arc_ext[m] = math.inf
        self._ends = ends = np.empty(m, dtype=bool)
        if m:
            np.not_equal(keys[1:], keys[:-1], out=ends[:-1])
            ends[-1] = True
        self._last = ends.nonzero()[0]
        self._arc0_sorted = self.arc0[self._order]
        self._leaders = None  # who leads whom, worked out for this structure
        self._starts = None
        self._key_list = None
        self._take_positions()

    def _take_positions(self, gap=None, least=None) -> None:
        """The position-dependent part of the index: each entry's arc, the
        in-group distance from each entry to the next (inf at a group's
        end), and whether two adjacent members are close enough to overlap
        or tie. `least` is the smallest of `gap`, if known."""
        positions = self._epos
        m = len(positions)
        if gap is None:
            gap = positions[1:] - positions[:-1]
            gap[self._ends[:-1]] = math.inf
        np.add(self._arc0_sorted, positions, out=self._arc_ext[:m])
        self._gap = gap
        if least is None:
            least = gap.min() if m > 1 else math.inf
        self._near = bool(least <= self.vehicle_length)
        self._tie = self._near and bool(least <= _TIE)
        self._lists = None

    def _group_starts(self):
        """Each group's first sorted entry (one past the end for the two
        keys after the last group)."""
        if self._starts is None:
            self._starts = np.searchsorted(self._keys, self._group_ids)
        return self._starts

    def _index_lists(self):
        """The lane index as Python lists for the per-vehicle searches: each
        entry's row and pos, and each group's first entry."""
        if self._lists is None:
            self._lists = (self._order.tolist(), self._epos.tolist(), self._group_starts().tolist())
        return self._lists

    def _first_in_chain(self, base, chain, arc, exclude):
        """The first vehicle but `exclude` at or ahead of arc position `arc`
        in the groups of `chain` (of the case whose group keys start at
        `base`), and its centre distance; (-1, inf) if there is none. A
        vehicle exactly abreast is a leader at distance 0."""
        order, positions, starts = self._index_lists()
        stride = self._stride
        for j, lane_here, offset in chain:
            g = base + j * stride + lane_here
            s, e = starts[g], starts[g + 1]
            if s == e:
                continue
            i = s
            if offset + positions[s] < arc:
                # offset + pos never decreases with pos, so bisect is exact
                i = bisect_left(positions, arc, s + 1, e, key=lambda p: offset + p)
            if i < e and order[i] == exclude:
                i += 1
            if i < e:
                return order[i], offset + positions[i] - arc
        return -1, math.inf

    def _follower(self, base, link_idx, lane, arc, exclude):
        """Closest vehicle but `exclude` behind arc position `arc` in the
        given lane, up the chain of upstream links that have the lane.
        Returns (row, centre distance), (-1, inf) if there is none."""
        order, positions, starts = self._index_lists()
        stride = self._stride
        for j, lane_here, offset in self._behind[link_idx, lane]:
            g = base + j * stride + lane_here
            s, e = starts[g], starts[g + 1]
            if s < e:
                i = bisect_left(positions, arc, s, e, key=lambda p: offset + p) - 1
                if i >= s and order[i] == exclude:
                    i -= 1
                if i >= s:
                    return order[i], arc - (offset + positions[i])
        return -1, math.inf

    def _leader_pass(self):
        """The leader pass: every row's leader row (-1 for none) and centre
        distance (inf for none), from the lane index (see the module
        docstring). Who leads whom, bar the per-vehicle cases, is worked out
        once per index structure."""
        order, positions, last = self._order, self._epos, self._last
        m, n = len(order), len(self.pos)
        if not m:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if self._leaders is None:
            to, odd = self._targets(self._keys[last])
            # the first entry of each group, then the stand-in for "none"
            firsts = np.empty(len(last) + 1, dtype=np.int64)
            firsts[0] = 0
            np.add(last[:-1], 1, out=firsts[1:-1])
            firsts[-1] = m
            first = firsts[to]
            lead = np.empty(m, dtype=np.int64)
            lead[:-1] = order[1:]
            lead[last] = self._order_ext[first]
            row_lead = np.empty(n, dtype=np.int64)
            row_lead[order] = lead
            odd = [int(last[i]) for i in odd]
            self._leaders = (first, odd, lead, row_lead)
        first, odd, lead, row_lead = self._leaders
        lead_d = np.empty(m)
        lead_d[:-1] = self._gap
        arc = self._arc_ext
        lead_d[last] = arc[first] - arc[last]
        odd = list(odd)
        if self._tie:
            keys = self._keys
            for i in (self._gap <= _TIE).nonzero()[0].tolist():
                if i + 2 == m or keys[i + 2] != keys[i + 1]:  # i + 1 ends its group
                    offset = self.offsets[int(keys[i]) % self._case_stride // self._stride]
                    if offset + positions[i] >= offset + positions[i + 1]:
                        odd.append(i + 1)
        if odd or self._pairs is not None:
            lead, row_lead = lead.copy(), row_lead.copy()
        for i in odd:
            self._odd_last_leader(int(i), lead, lead_d)
            row_lead[order[i]] = lead[i]
        row_d = np.empty(n)
        row_d[order] = lead_d
        if self._pairs is not None:
            self._two_lane_leaders(row_lead, row_d, lead, lead_d)
        return row_lead, row_d

    def _odd_last_leader(self, i, lead, lead_d):
        """The leader of sorted entry `i`, the last of its group, worked out
        per vehicle along its lane's whole chain, its own link included: its
        lane does not exist on its link (the chain starts at the link's last
        lane), or its arc ties with the member before it (which then leads
        it at distance 0)."""
        order, positions, _starts = self._index_lists()
        key = int(self._keys[i])
        local = key % self._case_stride
        link_idx, lane = divmod(local, self._stride)
        arc = self.offsets[link_idx] + positions[i]
        lead[i], lead_d[i] = self._first_in_chain(
            key - local, self._ahead[link_idx, lane], arc, order[i]
        )

    def _two_lane_leaders(self, row_lead, row_d, lead, lead_d):
        """Fix the leaders of the vehicles with an entry in two lanes: the
        nearer of the two, the one of the group met first on a tie."""
        rows, first, second = self._pairs
        lead_a, lead_b = lead[first], lead[second]
        d_a, d_b = lead_d[first], lead_d[second]
        take_b = d_b < d_a
        tie = (d_b == d_a) & (lead_b != lead_a)
        for k in tie.nonzero()[0].tolist():
            take_b[k] = self._group_rank(int(second[k])) < self._group_rank(int(first[k]))
        row_lead[rows] = np.where(take_b, lead_b, lead_a)
        row_d[rows] = np.where(take_b, d_b, d_a)

    def _group_rank(self, i):
        """When the group of sorted entry `i` was met first: its earliest
        inserted member's row, then whether that is the member's upper
        lane."""
        starts = self._group_starts()
        key = int(self._keys[i])
        r = int(self._order[starts[key]:starts[key + 1]].min())
        upper = bool(self.lc_start[r] == self.lc_start[r]) and key % self._stride == max(
            int(self.lc_from[r]), int(self.lc_to[r])
        )
        return r, upper

    # -- insertions -----------------------------------------------------------

    def _try_insert(self, c: int, ei: int, factor: float) -> bool:
        case = self._cases[c]
        link_idx = self._entrance_link[ei]
        link = self.route[link_idx]
        entry = self._entry_speed[ei]
        length = self.vehicle_length
        entry_arc = self.offsets[link_idx] + length / 2.0
        order, positions, starts = self._index_lists()
        base = c * self._case_stride
        best = None
        for lane in range(1, link.lane_count + 1):
            g = base + link_idx * self._stride + lane
            s, e = starts[g], starts[g + 1]
            clear = math.inf
            leader_speed = None
            if e > s:  # sorted by pos: the first occupant is the nearest
                cand = order[s]
                clear = positions[s] - length / 2.0 - length
                leader_speed = self._float_store.item(cand, _SPEED)
            # a fast vehicle closing in from upstream must get braking room
            fol, dist_r = self._follower(base, link_idx, lane, entry_arc, -1)
            rear_ok = True
            if fol >= 0:
                rear_gap = dist_r - length
                v_entry_guess = min(entry, leader_speed) if leader_speed is not None else entry
                fol_speed = self._float_store.item(fol, _SPEED)
                rear_ok = rear_gap > max(case.spawn_gap, 1.5 * (fol_speed - v_entry_guess))
            key = (not rear_ok, e - s, -clear)
            if best is None or key < best[0]:
                best = (key, lane, clear, leader_speed, rear_ok)
        _, lane, clear, leader_speed, rear_ok = best
        if clear < case.spawn_gap or not rear_ok:
            return False
        speed = entry
        if leader_speed is not None and clear < max(3.0 * speed, 20.0):
            speed = min(speed, leader_speed)
        vid = case.next_vid
        case.next_vid += 1
        self._insert_row(
            c, KIND_BACKGROUND, link_idx, lane, length / 2.0, vid=vid, speed=speed,
            factor=factor, fixed=0,
            lc_due_at=self.time + (vid % 10) * 0.1 * LC_CHECK_INTERVAL,
        )
        case.log.spawns.append(
            SpawnEvent(time=self.time, vehicle_id=vid, entrance=self._entrances[ei].id,
                       link=link.id, lane=lane)
        )
        return True

    def _spawn_step(self, c: int) -> None:
        case = self._cases[c]
        case.collect_arrivals(self.time + self.dt)
        for ei, q in enumerate(case.queues):
            inserted = 0
            lanes = self._counts[self._entrance_link[ei]]
            while q and inserted < lanes:
                if not self._try_insert(c, ei, q[0]):
                    break
                q.popleft()
                case.queued -= 1
                inserted += 1

    def _subject_slot(self, s, e, link, margin):
        """First position along the lane (sorted entries s to e, starting at
        the link entry) where the subject fits with `margin` clear on both
        bumpers. Returns (position, speed limit imposed by the vehicle ahead
        or None)."""
        order, positions, _starts = self._index_lists()
        half = self.vehicle_length / 2.0
        candidate = half
        for i in range(s, e):
            rear = positions[i] - half
            if rear - (candidate + half) >= margin:
                return candidate, self._float_store.item(order[i], _SPEED)
            candidate = positions[i] + half + margin + half
        if candidate + half <= link.length:
            return candidate, None
        return None, None

    def _insert_subject(self, c: int) -> None:
        case = self._cases[c]
        link = self.route[0]
        margin = max(2.0, case.spawn_gap)
        _order, _positions, starts = self._index_lists()
        best = None
        for lane in range(1, link.lane_count + 1):
            g = c * self._case_stride + lane
            pos, ahead_speed = self._subject_slot(starts[g], starts[g + 1], link, margin)
            if pos is None:
                continue
            if best is None or pos < best[0]:
                best = (pos, lane, ahead_speed)
        if best is None:
            best = (self.vehicle_length / 2.0, 1, 0.0)  # packed link: insert and let CF sort it out
        pos, lane, ahead_speed = best
        limit = link.speed_limit_ms
        speed = min(case.cf[KIND_SUBJECT].desired_speed(limit), limit)
        if ahead_speed is not None:
            speed = min(speed, max(ahead_speed, 0.0))
        self._insert_row(
            c, KIND_SUBJECT, 0, lane, pos, vid=SUBJECT_VID, speed=speed, factor=1.0, fixed=0,
            lc_due_at=self.time,
        )
        case.log.spawns.append(
            SpawnEvent(time=self.time, vehicle_id=SUBJECT_VID, entrance="",
                       link=link.id, lane=lane)
        )

    def add_vehicle(self, link_idx=0, lane=1, pos=10.0, speed=0.0, kind=KIND_BACKGROUND,
                    fixed=False, factor=1.0, case=0) -> int:
        """Insert a vehicle directly into `case` and return its id; its row
        is the last row. A fixed vehicle keeps its speed and never changes
        lanes. Its link must be on the route, its lane on its link and its
        pos on its link."""
        if not 0 <= link_idx < len(self.route):
            raise ValueError(f"link index {link_idx} is off the route")
        if not 1 <= lane <= self._counts[link_idx]:
            raise ValueError(f"lane {lane} is off link {self.route_ids[link_idx]}")
        if not 0.0 <= pos <= self._lengths[link_idx]:
            raise ValueError(f"pos {pos} is off link {self.route_ids[link_idx]}")
        state = self._cases[case]
        vid = SUBJECT_VID
        if kind == KIND_BACKGROUND:
            vid = state.next_vid
            state.next_vid += 1
        self._n_fixed += bool(fixed)
        self._insert_row(
            case, kind, link_idx, lane, pos, vid=vid, speed=speed, factor=factor,
            fixed=int(fixed), lc_due_at=math.inf if fixed else 0.0,
        )
        self._settle_rows()
        return vid

    # -- per-step dynamics ----------------------------------------------------

    def _accelerations(self, lead, lead_d):
        """Every row's car-following acceleration, clamped so the speed stays
        non-negative after one step (0 for a fixed vehicle), and its bound
        ``free``."""
        gap = np.maximum(lead_d - self.vehicle_length, 0.05)
        a, free = self._car_following(
            None, self.speed, gap, self.speed[lead], self.v_des, self.accel, self.accel[lead]
        )
        if self._n_fixed:
            a[self.fixed == 1] = 0.0
        return a, free

    def _groups_of(self, slots):
        """Vehicles of the models `slots` by family: (family, their indexes,
        None for all, and their terms), the terms in one ``np.take`` from
        the per-slot table."""
        terms = np.take(self._terms, slots, axis=1)
        if len(self._families) == 1:
            return [(self._families[0][0], None, terms)]
        family = self._slot_family[slots]
        groups = []
        for f, (cls, width) in enumerate(self._families):
            (of,) = (family == f).nonzero()
            if len(of) == len(slots):
                return [(cls, None, terms[:width])]
            if len(of):
                groups.append((cls, of, terms[:width, of]))
        return groups

    def _car_following(self, slots, v, gap, v_leader, v_des, prev_accel, leader_accel):
        """The car-following acceleration of vehicles of the models `slots`
        (None: the rows) at speed `v` behind leaders at bumper gap `gap`
        (inf for none) and speed `v_leader` that accelerated at
        `leader_accel` over the last step, clamped so the speed stays
        non-negative after one step; and each one's bound ``free`` on it
        (see ``models``). Each family present makes one ``accel_rows`` call
        on its vehicles."""
        groups = self._groups if slots is None else self._groups_of(slots)
        if len(groups) == 1:
            ((cls, _all, terms),) = groups
            a, free = cls.accel_rows(terms, v, gap, v_leader, v_des, prev_accel, leader_accel, self.dt)
        else:
            a, free = np.empty(len(v)), np.empty(len(v))
            state = np.array((v, gap, v_leader, v_des, prev_accel, leader_accel))
            for cls, of, terms in groups:
                a[of], free[of] = cls.accel_rows(terms, *state[:, of], self.dt)
        np.maximum(a, v / -self.dt, out=a)  # the speed floor is -v / dt
        return a, free

    def _lane_change_decisions(self, a, free):
        """(row, target lane) of every vehicle that starts a lane change this
        step, in row order; counts the evaluations and scans on the logs.
        `a` and `free` are ``_accelerations``'."""
        t = self.time
        due = (self.lc_due_at <= t).nonzero()[0]
        if not len(due):
            return []
        self.lc_due_at[due] = t + LC_CHECK_INTERVAL
        # the exact skip (see the module docstring) as a mask
        bound = free[due]
        np.maximum(bound, self.speed[due] / -self.dt, out=bound)
        bound -= a[due]
        scan = due[bound > self._thresholds[self.slot[due]]]
        # one case adds its counts without the two bincounts, which cost
        # 1.7-1.9 µs against 0.13 µs per step with a due row: about 12 ms of
        # a 7,000-step run
        if len(self.active) == 1:
            log = self.logs[self.active[0]]
            log.lc_evaluations += len(due)
            log.lc_scans += len(scan)
        else:
            n_cases = len(self.logs)
            for log, evaluations, scans in zip(
                self.logs, np.bincount(self.case[due], minlength=n_cases).tolist(),
                np.bincount(self.case[scan], minlength=n_cases).tolist(),
            ):
                log.lc_evaluations += evaluations
                log.lc_scans += scans
        if not len(scan):
            return []
        pending = self._pending_targets()
        sides, slots, inputs = [], [], []
        for r, c in zip(scan.tolist(), self.case[scan].tolist()):
            self._scan_sides(r, c, pending, sides, slots, inputs)
        if not sides:
            return []
        # the acceleration behind every side's leader, in one call
        accel = self._car_following(np.asarray(slots), *np.array(inputs).reshape(-1, 6).T)[0]
        # a row takes its first accepted side, or its second when that one's
        # advantage is strictly larger: right wins a tie
        starts, best = [], 0.0
        speed = self.speed
        for (r, target, leader, follower), slot, a_side in zip(sides, slots, accel.tolist()):
            advantage = a_side - a.item(r)
            if self._lane_change[slot].accepts(speed.item(r), advantage, leader, follower):
                if starts and starts[-1][0] == r:
                    if advantage > best:
                        starts[-1] = (r, target)
                else:
                    starts.append((r, target))
                    best = advantage
        return starts

    def _pending_targets(self):
        """The arcs of every vehicle moving into a lane it has not reached
        yet, by (case, link, target lane)."""
        pending = {}
        if self._pairs is not None:  # the vehicles in two lanes of the index
            rows = self._pairs[0]
            for case, link, target, switched, arc in zip(
                self.case[rows].tolist(), self.link[rows].tolist(), self.lc_to[rows].tolist(),
                self.lc_switched[rows].tolist(), (self.arc0[rows] + self.pos[rows]).tolist(),
            ):
                if not switched:
                    pending.setdefault((case, link, target), []).append(arc)
        return pending

    def _scan_sides(self, r, c, pending, sides, slots, inputs):
        """Scan the neighbour lanes of row `r` of case `c`, right then left,
        skipping a side with no lane or where a vehicle moving into it
        (`pending`) is near. For each other side, appends to `sides` (r, the
        lane, and the (bumper gap, speed) of the closest vehicle ahead in it
        and of the closest behind, None for none), the row's slot to
        `slots`, and to `inputs` what ``_car_following`` reads to give the
        row's acceleration in that lane: the row's speed, the gap and speed
        of the vehicle ahead (inf and 0 for none), the row's desired speed
        and acceleration over the last step, and that of the vehicle ahead
        (0 for none)."""
        floats, ints = self.floats, self.ints
        link_idx = ints.item(r, _LINK)
        lane = ints.item(r, _LANE)
        length = self.vehicle_length
        arc = self.offsets[link_idx] + floats.item(r, _POS)
        base = c * self._case_stride
        v, v_des, prev_accel = floats.item(r, _SPEED), floats.item(r, _V_DES), floats.item(r, _ACCEL)
        slot = ints.item(r, _SLOT)
        for target in (lane - 1, lane + 1):
            near = pending.get((c, link_idx, target))
            if target < 1 or target > self._counts[link_idx] or near and any(
                abs(p_arc - arc) < LC_CLEARANCE for p_arc in near
            ):
                continue
            lead, dist_f = self._first_in_chain(base, self._ahead[link_idx, target], arc, r)
            fol, dist_r = self._follower(base, link_idx, target, arc, r)
            leader = follower = None
            if lead >= 0:
                leader = (max(dist_f - length, 0.01), floats.item(lead, _SPEED))
                inputs += (v, *leader, v_des, prev_accel, floats.item(lead, _ACCEL))
            else:
                inputs += (v, math.inf, 0.0, v_des, prev_accel, 0.0)
            if fol >= 0:
                follower = (max(dist_r - length, 0.01), floats.item(fol, _SPEED))
            slots.append(slot)
            sides.append((r, target, leader, follower))

    def _move(self, a, starts):
        """Start the decided lane changes, integrate every vehicle one step,
        advance the lane-change ramps and move vehicles across link ends; a
        vehicle leaving the route's last link despawns. At a lane drop a
        vehicle in a lost lane moves into the last lane left, and a change
        toward a lost lane ends there."""
        dt = self.dt
        t = self.time
        t_next = t + dt
        for r, target in starts:
            lane = int(self.lane[r])
            self.logs[int(self.case[r])].lane_changes.append(
                LaneChangeRecord(
                    time=t, vehicle_id=int(self.vid[r]), link=self.route_ids[int(self.link[r])],
                    from_lane=lane, to_lane=target,
                )
            )
            self._start_lane_change(r, target)

        speed = self.speed
        new_speed = speed + a * dt
        np.maximum(new_speed, 0.0, out=new_speed)  # never -0.0 or nan: as `if not > 0`
        np.divide(new_speed - speed, dt, out=self.accel)
        speed[:] = new_speed
        self.pos[:] += new_speed * dt

        changing = (self.lc_start == self.lc_start).nonzero()[0]
        if len(changing) or self._lateral:
            self._ramp(changing, t_next)
            self._lateral = bool(len(changing))

        crossing = (self.pos > self.link_end).nonzero()[0]
        if len(crossing):
            gone = self._cross(crossing.tolist(), t_next)
            if gone:
                keep = np.ones(len(speed), dtype=bool)
                keep[gone] = False
                self._drop_rows(keep)

    def _start_lane_change(self, r: int, target: int) -> None:
        """Row `r` starts changing from its lane to `target` now."""
        lane = self.ints.item(r, _LANE)
        self.lc_start[r] = self.time
        self.lc_from[r] = lane
        self.lc_to[r] = target
        self.lc_switched[r] = 0
        self.lc_due_at[r] = math.inf
        self._restructured = True

    def _end_lane_change(self, r: int, t_next: float) -> None:
        """Row `r` ends its lane change at `t_next`; its next evaluation is
        due at the first step time LC_COOLDOWN after `t_next`. That is
        always past the LC_CHECK_INTERVAL after the evaluation that started
        the change."""
        self.lc_start[r] = math.nan
        k = max(self.step_index + 1, int((t_next + LC_COOLDOWN) / self.dt) - 1)
        while not k * self.dt - t_next >= LC_COOLDOWN:
            k += 1
        self.lc_due_at[r] = k * self.dt

    def _ramp(self, rows, t_next):
        """Advance the lateral ramp of the changing `rows`, flipping the lane
        at its midpoint; every other vehicle has no lateral offset."""
        dt = self.dt
        half = LC_DURATION / 2.0
        ramp_rate = (LANE_WIDTH / 2.0) / half
        ints = self.ints
        lat, lat_rate, ended = [], [], []
        for r, start, prev, origin, target, switched in zip(
            rows.tolist(), self.lc_start[rows].tolist(), self.lat[rows].tolist(),
            self.lc_from[rows].tolist(), self.lc_to[rows].tolist(),
            self.lc_switched[rows].tolist(),
        ):
            elapsed = t_next - start
            sign = 1.0 if target > origin else -1.0
            if elapsed >= half and not switched:
                ints[r, _LANE] = target
                ints[r, _LC_SWITCHED] = 1
                prev -= sign * LANE_WIDTH  # from here on, from the new lane
            if elapsed < half:
                new_lat = sign * ramp_rate * elapsed
            elif elapsed < LC_DURATION:
                new_lat = -sign * (LANE_WIDTH / 2.0) + sign * ramp_rate * (elapsed - half)
            else:
                new_lat = 0.0
                self._end_lane_change(r, t_next)
                ended.append(r)
            lat_rate.append((new_lat - prev) / dt)
            lat.append(new_lat)
        self.lat[:] = 0.0
        self.lat_rate[:] = 0.0
        if lat:
            self.lat[rows] = lat
            self.lat_rate[rows] = lat_rate
        if ended:
            self._restructured = True

    def _cross(self, rows, t_next):
        """Move `rows`, which ran past their link's end, onto the next link,
        where each takes its model's desired speed on that link; returns the
        rows that left the route."""
        lengths = self._lengths
        last_link = len(lengths) - 1
        gone = []
        self._restructured = True
        for r in rows:
            pos = float(self.pos[r])
            link_idx = int(self.link[r])
            lane = int(self.lane[r])
            while pos > lengths[link_idx]:
                if link_idx >= last_link:
                    c = int(self.case[r])
                    self.logs[c].despawns.append(DespawnEvent(time=t_next, vehicle_id=int(self.vid[r])))
                    gone.append(r)
                    break
                pos -= lengths[link_idx]
                link_idx += 1
                lanes_here = self._counts[link_idx]
                lane = min(lane, lanes_here)
                if self.lc_start[r] == self.lc_start[r] and self.lc_to[r] > lanes_here:
                    # the target lane ends here: the change ends with it
                    self._end_lane_change(r, t_next)
                    self.lat[r] = self.lat_rate[r] = 0.0
            self.pos[r] = pos
            self.link[r] = link_idx
            self.lane[r] = lane
            self.link_end[r] = lengths[link_idx]
            self.arc0[r] = self.offsets[link_idx]
            self.gbase[r] = (int(self.case[r]) * self._n_links + link_idx) * self._stride
            model = self._models[int(self.slot[r])]
            self.v_des[r] = model.desired_speed(self._limits[link_idx]) * float(self.factor[r])
        return gone

    def _resolve_collisions(self):
        """Push back the rear vehicle of every overlapping pair in a physical
        lane, and sort the lane index again if any moved.

        Each vehicle is in exactly one physical lane and a pushback moves
        only the rear of its pair, so every overlap is found first, from the
        sorted index, and resolved after, in (link, lane) order, each pair
        from the rear. Two physical neighbours overlap only if some adjacent
        pair of the group is as close as a vehicle length, which the index
        notes."""
        found = []
        pos, length = self.pos, self.vehicle_length
        if self._near:
            order, keys = self._order, self._keys
            physical = keys % self._stride == self.lane[order]
            if not physical.all():
                order, keys = order[physical], keys[physical]
            rear, front = order[:-1], order[1:]
            overlap = (keys[1:] == keys[:-1]) & (pos[front] - pos[rear] - length <= 0.0)
            found = [(int(rear[k]), int(front[k]), int(keys[k])) for k in overlap.nonzero()[0]]
        overlapping = {}
        if found:
            t = self.time + self.dt
            for r, f, key in found:
                c = int(self.case[r])
                pair = (int(self.vid[r]), int(self.vid[f]))
                overlapping.setdefault(c, set()).add(pair)
                if pair not in self._cases[c].collision_pairs:
                    local = key % self._case_stride
                    self.logs[c].collisions.append(
                        CollisionEvent(
                            time=t, follower_id=pair[0], leader_id=pair[1],
                            link=self.route_ids[local // self._stride], lane=local % self._stride,
                        )
                    )
                pos[r] = max(float(pos[f]) - length - 0.1, length / 2.0)
                if not self.fixed[r]:  # a fixed vehicle keeps its speed
                    self.speed[r] = 0.0
                    self.accel[r] = 0.0
            self._restructured = True
            self._sort()
        for c in self.active:
            case = self._cases[c]
            if case.collision_pairs or c in overlapping:
                case.collision_pairs = overlapping.get(c, set())

    def _count_gridlock(self):
        """Add the step to the gridlock time of every case with vehicles
        that all crawl; reset it for the others."""
        fast = self.case[self.speed >= GRIDLOCK_SPEED]
        moving = np.bincount(fast, minlength=len(self.configs)).tolist()
        for c in self.active:
            case = self._cases[c]
            if self._vehicles[c] and not moving[c]:
                case.gridlock_accum += self.dt
            else:
                case.gridlock_accum = 0.0

    def step(self, sink=None):
        """Advance every case still running by one time step; `sink`
        (default ``record_frame``) sees the batch after this step's
        insertions, and the cases it returns drop out."""
        horizon = self.time + self.dt
        for c in self.active:
            case = self._cases[c]
            if self.step_index == self.warmup_steps:
                self._insert_subject(c)
            if case.first_arrival < horizon or case.queued:
                self._spawn_step(c)
        if len(self.floats) < self._n:  # rows were inserted
            self._settle_rows()
        live = not self.time < self.configs[0].warmup_time
        for c in self.active:
            log = self.logs[c]
            n = self._vehicles[c]
            log.steps += 1
            log.vehicle_steps += n
            if live:
                log.live_steps += 1
                log.live_vehicle_steps += n
        missing = (record_frame if sink is None else sink)(self)
        if missing:
            for c in missing:
                log = self.logs[c]
                log.stopped_by = MissingSubjectError(
                    f"no subject vehicle in frame at t={self.time}; "
                    "shorten the horizon or extend the route",
                    log,
                )
            self._drop_cases(missing)
        lead, lead_d = self._leader_pass()
        a, free = self._accelerations(lead, lead_d)
        self._move(a, self._lane_change_decisions(a, free))
        self._sort()
        self._resolve_collisions()
        self._count_gridlock()
        self.step_index += 1
        self.time = self.step_index * self.dt

    def run(self, sink=None) -> list[TrajectoryLog]:
        """Step to the horizon, handing every step to `sink` (default
        ``record_frame``); a case that gridlocks or that the sink finds
        without its subject drops out on the way. Returns the logs."""
        while self.step_index < self.n_steps and self.active:
            self.step(sink)
            stuck = [c for c in self.active if self._cases[c].gridlock_accum > GRIDLOCK_TIME]
            for c in stuck:
                self.logs[c].feasible = False
                self.logs[c].gridlock_at = self.time
            if stuck:
                self._drop_cases(stuck)
        for log in self.logs:
            for eid in log.arrival_times:
                log.arrival_times[eid] = np.asarray(log.arrival_times[eid])
        return self.logs


def run_batch(configs, sink=None) -> list[TrajectoryLog]:
    """Simulate every scenario of `configs` together, handing each step to
    `sink`; without one every log records its frames. The configs must
    share network, time step, warm-up, horizon, vehicle length and
    detection range. A case that the sink finds without its subject stops
    there with a ``MissingSubjectError`` in its log's ``stopped_by``; the
    others run on. Any exception the sink raises propagates. Each log equals
    that of the case run alone."""
    return Simulation(configs).run(sink)


def run_scenario(config: ScenarioConfig, sink=None) -> TrajectoryLog:
    """Simulate one scenario, a batch of one, handing every step to `sink`;
    without one the log records every frame. A step without the subject
    that the sink reports raises its ``MissingSubjectError``, and any
    exception the sink raises propagates. Identical configs (same seed) give
    identical logs."""
    (log,) = run_batch([config], sink)
    if log.stopped_by is not None:
        raise log.stopped_by
    return log
