"""Self-time arithmetic on synthetic spans.

Run with `python -m pytest perfbench`.
"""

import multiprocessing
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

from spans import Span, Tracer, self_times


def span(sid, parent, start, end, proc="p"):
    return Span(id=sid, parent=parent, name=sid, proc=proc, start=start, end=end)


def test_nested_children_count_only_at_their_own_level():
    spans = [
        span("root", None, 0.0, 10.0),
        span("child", "root", 1.0, 7.0),
        span("grandchild", "child", 2.0, 5.0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(4.0)
    assert own["child"] == pytest.approx(3.0)
    assert own["grandchild"] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_back_to_back_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("b", "root", 4.0, 6.0),
        span("c", "root", 6.0, 9.0),
    ]
    assert self_times(spans)["root"] == pytest.approx(2.0)


def test_child_ending_with_its_parent():
    spans = [
        span("root", None, 0.0, 10.0),
        span("tail", "root", 6.0, 10.0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(6.0)
    assert own["tail"] == pytest.approx(4.0)


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 5.0),
        span("b", "root", 3.0, 6.0),
        span("late", "root", 9.0, 12.0),
    ]
    assert self_times(spans)["root"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_children_in_another_process_leave_the_parent_self_time():
    spans = [
        span("stage", None, 0.0, 10.0, proc="main"),
        span("case1", "stage", 0.5, 5.0, proc="w1"),
        span("case2", "stage", 0.5, 9.5, proc="w2"),
    ]
    assert self_times(spans)["stage"] == pytest.approx(10.0)


_traced_case = None


def _call_case(x):
    return _traced_case(x)


def test_wrapped_calls_nest(tmp_path):
    tracer = Tracer(tmp_path)
    ns = types.SimpleNamespace()
    ns.evaluate_case = tracer.wrap("pipeline.evaluate_case", lambda x: x + 1)
    ns.run_stage1 = tracer.wrap("pipeline.run_stage1", lambda x: ns.evaluate_case(x))
    assert ns.run_stage1(1) == 2
    by_name = {s.name: s for s in tracer.collect()}
    outer, inner = by_name["pipeline.run_stage1"], by_name["pipeline.evaluate_case"]
    assert outer.parent is None and inner.parent == outer.id
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_spans_recorded_in_forked_workers_are_collected(tmp_path):
    global _traced_case
    tracer = Tracer(tmp_path)
    _traced_case = tracer.wrap("pipeline.evaluate_case", lambda x: x + 1)

    def stage(xs):
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as ex:
            return list(ex.map(_call_case, xs))

    assert tracer.wrap("pipeline.run_stage2", stage)([1, 2, 3]) == [2, 3, 4]
    spans = tracer.collect()
    (parent,) = [s for s in spans if s.name == "pipeline.run_stage2"]
    cases = [s for s in spans if s.name == "pipeline.evaluate_case"]
    assert len(cases) == 3
    assert all(c.parent == parent.id and c.proc != parent.proc for c in cases)
    assert self_times(spans)[parent.id] == pytest.approx(parent.duration)
