"""Span tracing of avcalib's layers from outside the package.

`Tracer.install()` replaces, in `avcalib.pipeline`'s namespace, every public
function the pipeline calls with a wrapper that records a span (name, start,
end, parent span, process) plus counts taken from the call's arguments and
result. Nothing in `avcalib` changes: the pipeline looks these names up in its
module globals on every call, so it calls the wrappers. Pool workers are
forked from a process that has the wrappers installed, so they record spans
too.

Spans stay in memory. The benchmark process collects its own with
`Tracer.collect()` when the run ends; a worker appends its spans to its own
file under `worker_dir` each time its outermost span closes, because a pool
worker exits without running exit handlers.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: str
    parent: str | None
    name: str
    proc: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[str, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children in the same process. Overlapping children
    are counted once, and the part of a child outside its parent not at all.
    A worker's spans run beside their parent in another process, so they
    take nothing from the parent's self time."""
    children: dict[str, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            if c.proc != s.proc:
                continue
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# ---------------------------------------------------------------------------
# counts taken at each layer boundary; each gets (args, kwargs, result)


def _sim_counts(args, kwargs, log) -> dict:
    return {
        "steps": len(log.frames),
        "vehicle_steps": sum(len(f) for f in log.frames),
        "lane_changes": len(log.lane_changes),
        "spawns": len(log.spawns),
        "collisions": log.collision_count,
        "infeasible": int(not log.feasible),
    }


def _detector_counts(args, kwargs, dataset) -> dict:
    return {
        "records": len(dataset.records),
        "observations": sum(len(r.surroundings) for r in dataset.records),
    }


def _parse_counts(args, kwargs, dataset) -> dict:
    # one CSV row per (record, surrounding vehicle); a record with no
    # surrounding vehicle still has a row of its own
    return {"rows": sum(max(1, len(r.surroundings)) for r in dataset.records)}


def _event_counts(args, kwargs, events) -> dict:
    return {
        "cf_episodes": len(events.episodes),
        "lane_changes": len(events.lane_changes),
        "cut_ins": len(events.cut_ins),
    }


def _case_counts(args, kwargs, outcome) -> dict:
    values, ctx = args
    return {"key": repr((ctx.stage, ctx.master_seed, ctx.replications, sorted(values.items())))}


def _saga_counts(args, kwargs, result) -> dict:
    seen = set()
    repeats = 0
    for gen in result.history:
        for ind in gen.population:
            key = tuple(sorted(ind.items()))
            repeats += key in seen
            seen.add(key)
    return {
        "generations": len(result.history),
        "evaluations": result.n_evaluations,
        "repeat_evaluations": repeats,
    }


# name in avcalib.pipeline -> (span name, count function)
LAYERS = {
    "run_scenario": ("roadsim.run_scenario", _sim_counts),
    "virtual_detector_sample": ("roadsim.virtual_detector_sample", _detector_counts),
    "parse_field_data": ("fielddata.parse_field_data", _parse_counts),
    "preprocess": ("fielddata.preprocess", None),
    "extract_events": ("fielddata.extract_events", _event_counts),
    "compute_traffic_mops": ("metrics.compute_traffic_mops", None),
    "compute_vehicle_mops": ("metrics.compute_vehicle_mops", None),
    "accuracy": ("metrics.accuracy", None),
    "evaluate_moes": ("metrics.evaluate_moes", None),
    "build_orthogonal_array": ("doe.build_orthogonal_array", None),
    "range_analysis": ("doe.range_analysis", None),
    "run_saga": ("saga.run_saga", _saga_counts),
    "evaluate_case": ("pipeline.evaluate_case", _case_counts),
    "run_stage1": ("pipeline.run_stage1", None),
    "run_stage2": ("pipeline.run_stage2", None),
    "calibrate": ("pipeline.calibrate", None),
}


class Tracer:
    """Records spans around the functions of `LAYERS` while installed."""

    def __init__(self, worker_dir):
        self.worker_dir = Path(worker_dir)
        self.owner = os.getpid()
        self.pid = self.owner
        self.proc = f"{self.pid}-{time.perf_counter_ns()}"
        self.spans: list[Span] = []
        self.stack: list[str] = []
        self._base_depth = 0
        self._next_id = 0
        self._saved: dict = {}
        self._module = None

    def _enter_worker(self) -> None:
        """First span in a forked worker: drop the spans inherited from the
        parent and keep its open spans as the parents of this worker's."""
        self.pid = os.getpid()
        self.proc = f"{self.pid}-{time.perf_counter_ns()}"
        self.spans = []
        self._next_id = 0
        self._base_depth = len(self.stack)

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._enter_worker()
            sid = f"{self.proc}.{self._next_id}"
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            span = Span(sid, parent, name, self.proc, start, end)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            self.spans.append(span)
            if self.pid != self.owner and len(self.stack) == self._base_depth:
                self._flush_worker()
            return result

        return traced

    def _flush_worker(self) -> None:
        with open(self.worker_dir / f"spans-{self.proc}.jsonl", "a") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")
        self.spans = []

    def install(self, pipeline_module) -> None:
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        for path in self.worker_dir.glob("spans-*.jsonl"):
            path.unlink()
        self._module = pipeline_module
        for attr, (name, counts) in LAYERS.items():
            fn = getattr(pipeline_module, attr)
            self._saved[attr] = fn
            setattr(pipeline_module, attr, self.wrap(name, fn, counts))

    def uninstall(self) -> None:
        for attr, fn in self._saved.items():
            setattr(self._module, attr, fn)
        self._saved = {}

    def collect(self) -> list[Span]:
        """This process's spans plus every span the workers wrote."""
        spans = list(self.spans)
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(path) as f:
                spans.extend(Span(**json.loads(line)) for line in f)
        return spans


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass


def _percentile(sorted_values, q: int) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, workers: int, pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A layer the workload does not
    reach reads 0."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {name: [] for name, _ in LAYERS.values()}
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(own[s.id] for s in by_name[name])

    def total(name, key):
        return sum(s.counts[key] for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name, _ in LAYERS.values():
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.self_s"] = self_s(name)

    sim = "roadsim.run_scenario"
    m["roadsim.vehicle_steps"] = total(sim, "vehicle_steps")
    m["roadsim.us_per_vehicle_step"] = 1e6 * ratio(self_s(sim), m["roadsim.vehicle_steps"])
    m["roadsim.mean_vehicles"] = ratio(m["roadsim.vehicle_steps"], total(sim, "steps"))
    for key in ("lane_changes", "spawns", "collisions"):
        m[f"roadsim.{key}"] = total(sim, key)
    m["roadsim.infeasible_runs"] = total(sim, "infeasible")

    det = "roadsim.virtual_detector_sample"
    m["roadsim.detector.records"] = total(det, "records")
    m["roadsim.detector.observations"] = total(det, "observations")
    m["roadsim.detector.us_per_observation"] = 1e6 * ratio(
        self_s(det), m["roadsim.detector.observations"]
    )

    m["fielddata.parse_field_data.rows"] = total("fielddata.parse_field_data", "rows")
    for key in ("cf_episodes", "lane_changes", "cut_ins"):
        m[f"fielddata.events.{key}"] = total("fielddata.extract_events", key)

    saga = "saga.run_saga"
    m["saga.generations"] = total(saga, "generations")
    m["saga.evaluations"] = total(saga, "evaluations")
    m["saga.repeat_evaluations"] = total(saga, "repeat_evaluations")
    m["saga.distinct_ratio"] = ratio(
        m["saga.evaluations"] - m["saga.repeat_evaluations"], m["saga.evaluations"]
    )

    cases = by_name["pipeline.evaluate_case"]
    case_s = sorted(s.duration for s in cases)
    m["pipeline.case_s.p50"] = _percentile(case_s, 50)
    m["pipeline.case_s.p90"] = _percentile(case_s, 90)
    m["pipeline.distinct_case_ratio"] = ratio(len({s.counts["key"] for s in cases}), len(cases))
    for stage in ("run_stage1", "run_stage2"):
        m[f"pipeline.{stage}.s"] = sum(s.duration for s in by_name[f"pipeline.{stage}"])
    # the final evaluation runs between the end of stage 2 and the end of
    # the evaluation measures, both direct children of the calibration
    m["pipeline.final_evaluation_s"] = 0.0
    for cal in by_name["pipeline.calibrate"]:
        ends = {s.name: s.end for s in spans if s.parent == cal.id}
        if "pipeline.run_stage2" in ends and "metrics.evaluate_moes" in ends:
            m["pipeline.final_evaluation_s"] += ends["metrics.evaluate_moes"] - ends["pipeline.run_stage2"]
    # cases are dispatched by the two stages of a calibration, or by the
    # benchmark's own loop when it scores a case list directly
    dispatch_s = m["pipeline.run_stage1.s"] + m["pipeline.run_stage2.s"] or pass_wall
    m["pipeline.worker_busy_ratio"] = ratio(sum(case_s), workers * dispatch_s)
    m["trace.spans"] = len(spans)
    return m
