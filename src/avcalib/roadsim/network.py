"""Road network and scenario configuration.

The network is a set of directed links chained through `downstream`
pointers; the subject vehicle follows a fixed route along this chain and
background vehicles enter at entrance links and drive to the end of the
chain. This corridor-with-on-ramps topology covers the expressway-style
routes the calibration targets without a full graph model.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import accumulate
from pathlib import Path

from .models import (
    MODEL_CLASSES,
    MODEL_NAMES,
    CarFollowingParams,
    IdmParams,
    LaneChangeParams,
)

KMH = 1.0 / 3.6


@dataclass(frozen=True)
class Link:
    id: str
    length: float          # m
    lane_count: int
    speed_limit: float     # km/h
    downstream: str | None = None

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"link {self.id}: length must be > 0")
        if self.lane_count < 1:
            raise ValueError(f"link {self.id}: needs at least one lane")
        if self.speed_limit <= 0:
            raise ValueError(f"link {self.id}: speed limit must be > 0")

    @property
    def speed_limit_ms(self) -> float:
        return self.speed_limit * KMH


@dataclass(frozen=True)
class Entrance:
    id: str
    link: str
    entry_speed: float | None = None  # km/h; defaults to the link's limit


@dataclass(frozen=True)
class RoadNetwork:
    links: tuple[Link, ...]
    entrances: tuple[Entrance, ...]
    subject_route: tuple[str, ...]

    def __post_init__(self):
        ids = [l.id for l in self.links]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate link ids")
        by_id = {l.id: l for l in self.links}
        for e in self.entrances:
            if e.link not in by_id:
                raise ValueError(f"entrance {e.id} references unknown link {e.link}")
        if not self.subject_route:
            raise ValueError("subject route must not be empty")
        for lid in self.subject_route:
            if lid not in by_id:
                raise ValueError(f"route references unknown link {lid}")
        for e in self.entrances:
            if e.link not in self.subject_route:
                raise ValueError(
                    f"entrance {e.id} must attach to a subject-route link; got {e.link}"
                )
        for a, b in zip(self.subject_route[:-1], self.subject_route[1:]):
            if by_id[a].downstream != b:
                raise ValueError(f"route links {a} -> {b} are not connected")

    def link(self, link_id: str) -> Link:
        for l in self.links:
            if l.id == link_id:
                return l
        raise KeyError(link_id)

    def route_links(self) -> tuple[Link, ...]:
        return tuple(self.link(lid) for lid in self.subject_route)

    def route_offsets(self) -> tuple[float, ...]:
        """Arc position of each route link's start: the lengths of the links
        before it, summed in route order, as plain floats."""
        lengths = [link.length for link in self.route_links()[:-1]]
        return tuple(accumulate(lengths, initial=0.0))


@dataclass(frozen=True)
class BehaviorSpec:
    car_following: CarFollowingParams
    lane_change: LaneChangeParams


# the subject of a scenario without a 'subject' behavior entry
DEFAULT_SUBJECT = BehaviorSpec(IdmParams(v0=60.0 * KMH), LaneChangeParams())


@dataclass(frozen=True)
class ScenarioConfig:
    network: RoadNetwork
    entrance_inputs: dict = field(default_factory=dict)   # entrance id -> pcu/h
    behavior: dict = field(default_factory=dict)          # class -> BehaviorSpec
    total_time: float = 1750.0
    warmup_time: float = 600.0
    time_step: float = 0.1
    detection_range: tuple[float, float] = (-150.0, 150.0)
    speed_variation: float = 0.1   # +- fraction on each driver's desired speed
    vehicle_length: float = 4.5
    seed: int = 0

    def __post_init__(self):
        if not self.warmup_time < self.total_time:
            raise ValueError("warmup_time must be below total_time")
        if self.time_step <= 0:
            raise ValueError("time_step must be > 0")
        if self.warmup_time < 0:
            raise ValueError("warmup_time must be >= 0")
        if self.vehicle_length <= 0:
            raise ValueError("vehicle_length must be > 0")
        rear, front = self.detection_range
        if not (rear < 0.0 < front):
            raise ValueError("detection_range must straddle zero (rear < 0 < front)")
        if not 0.0 <= self.speed_variation < 1.0:
            raise ValueError("speed_variation must lie in [0, 1)")
        for eid, rate in self.entrance_inputs.items():
            if rate < 0:
                raise ValueError(f"entrance {eid}: input rate must be >= 0")
        known = {e.id for e in self.network.entrances}
        for eid in self.entrance_inputs:
            if eid not in known:
                raise ValueError(f"entrance input for unknown entrance {eid}")
        if "background" not in self.behavior:
            raise ValueError("behavior must define the 'background' class")

    def subject_behavior(self) -> BehaviorSpec:
        """The 'subject' behavior entry, else an IDM subject at 60 km/h."""
        return self.behavior.get("subject", DEFAULT_SUBJECT)


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _cf_to_dict(cf: CarFollowingParams) -> dict:
    return {"model": MODEL_NAMES[type(cf)], **asdict(cf)}


def _keys(obj, where: str, required, optional=()) -> dict:
    """obj, once it is known to be an object holding every required key
    and no key outside required and optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, not {obj!r}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    missing = [k for k in required if k not in obj]
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise ValueError(f"{where}: {problem} key(s) {', '.join(map(repr, names))}")
    return obj


def _cf_from_dict(d, where: str) -> CarFollowingParams:
    name = d.get("model") if isinstance(d, dict) else None
    cls = MODEL_CLASSES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"{where}: unknown car-following model {name!r}")
    params = dict(_keys(d, where, ("model",), [f.name for f in fields(cls)]))
    del params["model"]
    return cls(**params)


# the plain settings of a ScenarioConfig, each read as its default's type; a
# missing one takes that default
_SETTINGS = {f.name: type(f.default) for f in fields(ScenarioConfig) if f.default is not MISSING}


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    settings = {name: getattr(cfg, name) for name in _SETTINGS}
    settings["detection_range"] = list(cfg.detection_range)
    return {
        "links": [
            {
                "id": l.id,
                "length": l.length,
                "lanes": l.lane_count,
                "speed_limit": l.speed_limit,
                "downstream": l.downstream,
            }
            for l in cfg.network.links
        ],
        "entrances": [
            {"id": e.id, "link": e.link, "entry_speed": e.entry_speed}
            for e in cfg.network.entrances
        ],
        "subject_route": list(cfg.network.subject_route),
        "entrance_inputs": dict(cfg.entrance_inputs),
        "behavior": {
            cls: {
                "car_following": _cf_to_dict(spec.car_following),
                "lane_change": asdict(spec.lane_change),
            }
            for cls, spec in cfg.behavior.items()
        },
        **settings,
    }


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Inverse of scenario_to_dict. A missing required key, or a key that
    names nothing, is a ValueError naming it."""
    _keys(d, "scenario", ("links", "entrances", "subject_route"),
          ("entrance_inputs", "behavior", *_SETTINGS))
    links = []
    for i, l in enumerate(d["links"]):
        _keys(l, f"scenario links[{i}]",
              ("id", "length", "lanes", "speed_limit"), ("downstream",))
        links.append(Link(id=l["id"], length=float(l["length"]), lane_count=int(l["lanes"]),
                          speed_limit=float(l["speed_limit"]), downstream=l.get("downstream")))
    entrances = []
    for i, e in enumerate(d["entrances"]):
        _keys(e, f"scenario entrances[{i}]", ("id", "link"), ("entry_speed",))
        entrances.append(Entrance(id=e["id"], link=e["link"], entry_speed=e.get("entry_speed")))
    behavior = {}
    for cls, spec in d.get("behavior", {}).items():
        where = f"scenario behavior {cls!r}"
        lane_change = _keys(spec, where, ("car_following",), ("lane_change",)).get("lane_change", {})
        _keys(lane_change, f"{where} lane_change", (), [f.name for f in fields(LaneChangeParams)])
        behavior[cls] = BehaviorSpec(
            car_following=_cf_from_dict(spec["car_following"], f"{where} car_following"),
            lane_change=LaneChangeParams(**lane_change),
        )
    return ScenarioConfig(
        network=RoadNetwork(tuple(links), tuple(entrances), tuple(d["subject_route"])),
        entrance_inputs={k: float(v) for k, v in d.get("entrance_inputs", {}).items()},
        behavior=behavior,
        **{name: read(d[name]) for name, read in _SETTINGS.items() if name in d},
    )


def load_scenario(path) -> ScenarioConfig:
    with open(path) as f:
        return scenario_from_dict(json.load(f))


def save_scenario(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True) + "\n")
