"""Virtual detector: what the subject vehicle's sensors would report.

``VirtualDetector`` is a simulation sink (see ``engine.py``): the engine
hands it a view of one case's vehicles once per step, and after warm-up it
builds one detection record per step from them, storing nothing else. A
background vehicle is visible when its position along the route arc falls
inside the detection window around the subject; positions are reported
front-positive / left-positive and speeds in km/h, matching the field-data
schema bit for bit. The window is found on the step's arrays, once per step
for every case of a batch (``CaseView.window``); the visible vehicles' values
go into the records as plain Python floats and ints (``tolist``), the same
values the engine's arithmetic gives.

The first live step without a subject raises ``MissingSubjectError``, which
ends the run. ``virtual_detector_sample`` turns the records of a finished run
into a validated ``FieldDataset``.
"""

from __future__ import annotations

from ..detection import DatasetMeta, DetectionRecord, FieldDataset, SurroundingObs
from .engine import LANE_WIDTH, MissingSubjectError, heading_deg
from .network import ScenarioConfig

MS_TO_KMH = 3.6


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
        self.records: list[DetectionRecord] = []

    def __call__(self, case) -> None:
        t = case.time
        cfg = self.config
        if t < cfg.warmup_time:
            return
        rear, front = cfg.detection_range
        window = case.window(rear, front)
        if window is None:
            raise MissingSubjectError(
                f"no subject vehicle in frame at t={t}; "
                "shorten the horizon or extend the route",
                case.log,
            )
        (s_link, s_lane, s_arc, s_lat, s_speed, s_accel, s_lat_rate), *visible = window
        obs = tuple([
            SurroundingObs(
                str(vid),
                lane,
                rel,
                (lane - s_lane) * LANE_WIDTH + (lat - s_lat),
                speed * MS_TO_KMH,
                heading_deg(lat_rate, speed) if lat_rate else 0.0,  # 0 when not moving sideways
            )
            for vid, lane, rel, lat, speed, lat_rate in zip(*visible)
        ])

        link = self.links[s_link]
        self.records.append(
            DetectionRecord(
                float(t),
                link.id,
                link.speed_limit,
                s_speed * MS_TO_KMH,
                s_lat_rate / max(s_speed, 0.1),
                s_arc,
                0.0,
                s_accel,
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
