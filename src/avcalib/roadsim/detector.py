"""Virtual detector: what the subject vehicle's sensors would report.

``VirtualDetector`` is a simulation sink (see ``engine.py``): the engine
hands it the live vehicles once per step, and after warm-up it builds one
detection record per step from them, storing nothing else. A background
vehicle is visible when its position along the route arc falls inside the
detection window around the subject; positions are reported front-positive /
left-positive and speeds in km/h, matching the field-data schema bit for
bit. Every value is a plain Python float or int: the engine's state already
is (its golden tests check that), so the values go into the records as they
are.

The detector reads the subject from ``sim.subject``; the first live step
without one raises ``MissingSubjectError``, which ends the run.
``virtual_detector_sample`` turns the records of a finished run into a
validated ``FieldDataset``.
"""

from __future__ import annotations

import operator

from ..detection import DatasetMeta, DetectionRecord, FieldDataset, SurroundingObs
from .engine import LANE_WIDTH, MissingSubjectError, heading_deg
from .network import ScenarioConfig

MS_TO_KMH = 3.6

_vid_of_hit = operator.itemgetter(0)


def _lane_distance(lat: float) -> float:
    """Signed distance from the vehicle centerline to the nearest lane
    marking: positive when that marking is on the left."""
    d = LANE_WIDTH / 2.0 - abs(lat)
    return d if lat >= 0.0 else -d


class VirtualDetector:
    """Sink that samples one run through the subject's detection window.

    One detector serves one run of `config`; its records accumulate in
    ``records``."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.links = config.network.route_links()
        self.offsets = config.network.route_offsets()
        self.records: list[DetectionRecord] = []

    def __call__(self, sim) -> None:
        t = sim.time
        cfg = self.config
        if t < cfg.warmup_time:
            return
        subject = sim.subject
        if subject is None:
            raise MissingSubjectError(
                f"no subject vehicle in frame at t={t}; "
                "shorten the horizon or extend the route",
                sim.log,
            )
        rear, front = cfg.detection_range
        offsets = self.offsets
        s_link = subject.link_idx
        s_arc = offsets[s_link] + subject.pos
        s_lane = subject.lane
        s_lat = subject.lat
        s_speed = subject.speed

        visible = []
        for v in sim.vehicles:
            if v is subject:
                continue
            rel = offsets[v.link_idx] + v.pos - s_arc
            if rear <= rel <= front:
                visible.append((v.vid, rel, v))
        visible.sort(key=_vid_of_hit)
        obs = tuple([
            SurroundingObs(
                str(vid),
                v.lane,
                rel,
                (v.lane - s_lane) * LANE_WIDTH + (v.lat - s_lat),
                v.speed * MS_TO_KMH,
                heading_deg(v) if v.lat_rate else 0.0,  # 0 when not moving sideways
            )
            for vid, rel, v in visible
        ])

        link = self.links[s_link]
        self.records.append(
            DetectionRecord(
                float(t),
                link.id,
                link.speed_limit,
                s_speed * MS_TO_KMH,
                subject.lat_rate / max(s_speed, 0.1),
                s_arc,
                0.0,
                subject.accel,
                s_lane,
                _lane_distance(s_lat),
                obs,
            )
        )


def virtual_detector_sample(detector: VirtualDetector) -> FieldDataset:
    """The validated dataset of the records `detector` took during its
    run."""
    cfg = detector.config
    rear, front = cfg.detection_range
    dataset = FieldDataset(
        records=tuple(detector.records),
        meta=DatasetMeta(
            source="simulation",
            interval=cfg.time_step,
            route="->".join(link.id for link in detector.links),
            detection_range=(float(rear), float(front)),
        ),
    )
    dataset.validate()
    return dataset
