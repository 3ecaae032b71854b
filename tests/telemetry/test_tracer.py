"""Span nesting, timing monotonicity, and the disabled no-op path."""

from __future__ import annotations

import json
import time

from repro.telemetry import (
    FLIGHT,
    NULL_SPAN,
    FlightRecorder,
    disable_tracing,
    enable_tracing,
    new_span_id,
    new_trace_id,
    span,
    span_rollup,
    trace_enabled,
    traced,
)
from repro.telemetry.flightrec import nest


def _by_name():
    return {r["name"]: r for r in FLIGHT.since()}


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


class TestNesting:
    def test_children_attach_to_enclosing_span(self):
        enable_tracing()
        with span("outer") as outer:
            with span("middle") as middle:
                with span("inner"):
                    pass
            with span("middle2"):
                pass
        records = _by_name()
        assert records["middle"]["parent_id"] == outer.span_id
        assert records["middle2"]["parent_id"] == outer.span_id
        assert records["inner"]["parent_id"] == middle.span_id
        assert records["outer"]["parent_id"] is None
        # Nested spans share the root's trace; only the root minted one.
        assert {r["trace_id"] for r in records.values()} == {outer.trace_id}

    def test_finished_roots_collected_in_order(self):
        enable_tracing()
        with span("first"):
            pass
        with span("second"):
            pass
        records = FLIGHT.since()
        assert [r["name"] for r in records] == ["first", "second"]
        assert records[0]["trace_id"] != records[1]["trace_id"]

    def test_attributes_and_counters(self):
        enable_tracing()
        with span("stage", circuit="s953") as sp:
            sp.set_attribute("patterns", 128)
            sp.add("faults", 3)
            sp.add("faults", 2)
        (record,) = FLIGHT.since()
        assert record["kind"] == "span"
        assert record["circuit"] == "s953" and record["patterns"] == 128
        assert record["counters"] == {"faults": 5}

    def test_walk_covers_whole_tree(self):
        enable_tracing()
        with span("a"):
            with span("b"):
                with span("c"):
                    pass
            with span("d"):
                pass
        (root,) = nest(FLIGHT.since())
        assert [n["name"] for n in _walk(root)] == ["a", "b", "c", "d"]


class TestTiming:
    def test_durations_monotone_and_nested(self):
        enable_tracing()
        with span("outer"):
            time.sleep(0.002)
            with span("inner"):
                time.sleep(0.002)
            time.sleep(0.002)
        records = _by_name()
        outer, inner = records["outer"], records["inner"]
        assert inner["duration_ms"] > 0
        assert outer["duration_ms"] >= inner["duration_ms"]
        assert inner["start"] >= outer["start"]
        assert (inner["start"] + inner["duration_ms"] / 1000
                <= outer["start"] + outer["duration_ms"] / 1000 + 1e-3)
        # Self time excludes the child.
        rollup = {row["name"]: row for row in span_rollup()}
        assert rollup["outer"]["self_s"] <= (
            rollup["outer"]["wall_s"] - rollup["inner"]["wall_s"] + 1e-6)

    def test_cpu_time_recorded(self):
        enable_tracing()
        with span("busy"):
            sum(i * i for i in range(50_000))
        (record,) = FLIGHT.since()
        assert record["cpu_ms"] > 0
        assert record["duration_ms"] > 0


class TestDisabled:
    def test_no_spans_and_no_stderr(self, capsys):
        disable_tracing()
        with span("anything") as sp:
            with span("nested"):
                pass
        assert sp is NULL_SPAN
        assert FLIGHT.since() == []
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""

    def test_null_span_api_is_inert(self):
        disable_tracing()
        with span("x") as sp:
            sp.set_attribute("k", "v")
            sp.add("n", 3)
        assert FLIGHT.since() == []

    def test_decorator_passthrough_when_disabled(self):
        disable_tracing()

        @traced("wrapped")
        def compute(x):
            return x + 1

        assert compute(1) == 2
        assert FLIGHT.since() == []

    def test_enable_disable_roundtrip(self):
        disable_tracing()
        assert not trace_enabled()
        enable_tracing()
        assert trace_enabled()
        with span("now-on"):
            pass
        assert [r["name"] for r in FLIGHT.since()] == ["now-on"]

    def test_serving_tiers_recorded_while_disabled(self):
        disable_tracing()
        with span("service.batch", kind="batch", key="s27/two-step") as sp:
            pass
        (record,) = FLIGHT.since()
        assert record["span_id"] == sp.span_id
        assert record["kind"] == "batch" and record["key"] == "s27/two-step"


class TestDecorator:
    def test_traced_records_span(self):
        enable_tracing()

        @traced()
        def stage():
            return 42

        assert stage() == 42
        (record,) = FLIGHT.since()
        assert record["name"].endswith("stage")


class TestWireFormat:
    def test_dict_roundtrip_preserves_tree(self):
        enable_tracing()
        with span("root", circuit="s27") as root:
            root.add("events", 7)
            with span("leaf"):
                pass
        records = json.loads(json.dumps(FLIGHT.since()))
        (clone,) = nest(records)
        assert clone["name"] == "root"
        assert clone["circuit"] == "s27"
        assert clone["counters"] == {"events": 7}
        assert [c["name"] for c in clone["children"]] == ["leaf"]
        assert clone["duration_ms"] == _by_name()["root"]["duration_ms"]

    def test_capture_and_adopt(self):
        """The records a span filed are read off the recorder's counter,
        and filing them in another recorder keeps the parentage given
        through ``parent``."""
        enable_tracing()
        parent = (new_trace_id(), new_span_id())
        mark = FLIGHT.recorded
        with span("worker-stage", parent=parent):
            pass
        collected = FLIGHT.since(mark)
        assert [r["name"] for r in collected] == ["worker-stage"]
        adopter = FlightRecorder(capacity=8)
        for record in collected:
            adopter.record(record)
        (record,) = adopter.since()
        assert (record["trace_id"], record["parent_id"]) == parent
