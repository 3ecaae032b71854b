"""Flight recorder + trace-context unit tests.

Covers the W3C-style traceparent helpers, the bounded ring and its
slow/error reservoirs, and cross-trace tree assembly — in particular the
link-grafting + descendant walk that puts a coalesced batch span
(and the kernel spans under it) into *every* member trace's tree.
"""

from __future__ import annotations

import os

import pytest

from repro.telemetry import (
    FlightRecorder,
    assemble_tree,
    current_trace,
    format_traceparent,
    make_record,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    trace_scope,
)


class TestTraceIds:
    def test_id_shapes(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        assert len(trace_id) == 32 and int(trace_id, 16) >= 0
        assert len(span_id) == 16 and int(span_id, 16) >= 0
        assert trace_id == trace_id.lower()

    def test_ids_are_random(self):
        assert len({new_trace_id() for _ in range(64)}) == 64
        assert len({new_span_id() for _ in range(64)}) == 64

    def test_traceparent_roundtrip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        header = format_traceparent(trace_id, span_id)
        assert header == f"00-{trace_id}-{span_id}-01"
        assert parse_traceparent(header) == (trace_id, span_id)

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-abc-def-01",                                   # wrong lengths
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",         # zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",         # zero span id
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",         # forbidden version
        "00-" + "A" * 32 + "-" + "2" * 16 + "-01",         # uppercase hex
        "00-" + "1" * 32,                                  # too few parts
    ])
    def test_invalid_traceparents_rejected(self, header):
        assert parse_traceparent(header) is None

    def test_future_version_tolerated(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        header = f"cc-{trace_id}-{span_id}-01-extrafield"
        assert parse_traceparent(header) == (trace_id, span_id)

    def test_canonical_length_nonzero_version_still_parses(self):
        # Exactly the canonical 55 chars but not version 00: must fall
        # through the slicing fast path to the tolerant parser.
        trace_id, span_id = new_trace_id(), new_span_id()
        assert parse_traceparent(f"cc-{trace_id}-{span_id}-01") == \
            (trace_id, span_id)

    def test_trace_scope_nests_and_restores(self):
        assert current_trace() is None
        with trace_scope("a" * 32, "b" * 16) as outer:
            assert current_trace() == outer
            with trace_scope("c" * 32, "d" * 16):
                assert current_trace() == ("c" * 32, "d" * 16)
            assert current_trace() == outer
        assert current_trace() is None


def _record(name="svc", trace=None, span=None, **kwargs):
    return make_record(name, trace or new_trace_id(),
                       span or new_span_id(), **kwargs)


class TestFlightRecorder:
    def test_capacity_zero_disables(self):
        rec = FlightRecorder(capacity=0)
        assert not rec.enabled
        rec.record(_record())
        snap = rec.snapshot()
        assert snap["recorded"] == 0 and snap["recent"] == []

    def test_env_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_SPANS", "7")
        assert FlightRecorder().capacity == 7
        monkeypatch.setenv("REPRO_FLIGHT_SPANS", "0")
        assert not FlightRecorder().enabled
        monkeypatch.delenv("REPRO_FLIGHT_SPANS")
        assert FlightRecorder().capacity == 4096

    def test_ring_wraps_but_counts_everything(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(_record(seq=i))
        snap = rec.snapshot()
        assert snap["recorded"] == 10
        # Newest first, only the last `capacity` retained.
        assert [r["seq"] for r in snap["recent"]] == [9, 8, 7, 6]

    def test_recorded_and_since_read_without_a_snapshot(self):
        rec = FlightRecorder(capacity=4)
        for i in range(3):
            rec.record(_record(seq=i))
        mark = rec.recorded
        assert mark == 3
        for i in range(3, 5):
            rec.record(_record(seq=i))
        assert [r["seq"] for r in rec.since(mark)] == [3, 4]
        assert [r["seq"] for r in rec.since()] == [1, 2, 3, 4]
        # More filed since the mark than the ring holds: what is left.
        for i in range(5, 12):
            rec.record(_record(seq=i))
        assert [r["seq"] for r in rec.since(mark)] == [8, 9, 10, 11]
        assert rec.since(rec.recorded) == []

    def test_slow_reservoir_keeps_slowest_requests_per_key(self):
        rec = FlightRecorder(capacity=2)  # tiny ring: reservoirs outlive it
        for i in range(20):
            rec.record(_record(kind="request", key="/diagnose",
                               duration_ms=float(i)))
        slow = rec.snapshot()["slow"]["/diagnose"]
        assert [r["duration_ms"] for r in slow] == [
            19.0, 18.0, 17.0, 16.0, 15.0, 14.0, 13.0, 12.0]

    def test_slow_reservoir_floor_rejects_fast_requests_cheaply(self):
        # Once the reservoir is full, requests faster than its slowest
        # member must not churn it (the hot path relies on this being
        # one float compare, not a sort per request).
        rec = FlightRecorder(capacity=4)
        for i in range(10, 19):
            rec.record(_record(kind="request", key="k",
                               duration_ms=float(i)))
        before = [r["duration_ms"] for r in rec.snapshot()["slow"]["k"]]
        for _ in range(50):
            rec.record(_record(kind="request", key="k", duration_ms=1.0))
        assert [r["duration_ms"]
                for r in rec.snapshot()["slow"]["k"]] == before
        rec.record(_record(kind="request", key="k", duration_ms=99.0))
        slow = [r["duration_ms"] for r in rec.snapshot()["slow"]["k"]]
        assert slow[0] == 99.0 and 1.0 not in slow and len(slow) == 8

    def test_slow_reservoir_ignores_non_requests_and_errors(self):
        rec = FlightRecorder(capacity=8)
        rec.record(_record(kind="batch", key="k", duration_ms=500.0))
        rec.record(_record(kind="request", key="k", duration_ms=400.0,
                           status="internal_error"))
        assert "k" not in rec.snapshot()["slow"]
        assert len(rec.snapshot()["errors"]["k"]) == 1

    def test_error_reservoir_keeps_most_recent(self):
        rec = FlightRecorder(capacity=4)
        for i in range(12):
            rec.record(_record(key="k", status="queue_full", seq=i))
        errors = rec.snapshot()["errors"]["k"]
        assert [r["seq"] for r in errors] == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_resize_keeps_newest_records(self):
        rec = FlightRecorder(capacity=8)
        for i in range(8):
            rec.record(_record(seq=i))
        assert rec.resize(3) == 3
        assert [r["seq"] for r in rec.snapshot()["recent"]] == [7, 6, 5]
        assert rec.capacity == 3 and rec.snapshot()["recorded"] == 8

    def test_resize_to_zero_disables_until_reenabled(self):
        rec = FlightRecorder(capacity=4)
        rec.record(_record(seq=0))
        rec.resize(0)
        assert not rec.enabled
        assert rec.snapshot()["recent"] == []
        rec.record(_record(seq=1))           # dropped while disabled
        rec.resize(16)
        rec.record(_record(seq=2))
        assert rec.enabled
        assert [r["seq"] for r in rec.snapshot()["recent"]] == [2]

    def test_reset_clears_everything(self):
        rec = FlightRecorder(capacity=4)
        rec.record(_record(kind="request", duration_ms=1.0))
        rec.record(_record(status="internal_error"))
        rec.reset()
        snap = rec.snapshot()
        assert snap["recorded"] == 0
        assert snap["recent"] == [] and snap["slow"] == {}
        assert snap["errors"] == {}


def _batch_records():
    """head request + member request + linked batch + kernel span."""
    head, member = new_trace_id(), new_trace_id()
    head_span, member_span = new_span_id(), new_span_id()
    batch_span, chunk_span = new_span_id(), new_span_id()
    records = [
        make_record("service.request", head, head_span, kind="request"),
        make_record("service.request", member, member_span, kind="request"),
        make_record("service.batch", head, batch_span, parent_id=head_span,
                    kind="batch",
                    links=[{"trace_id": member, "span_id": member_span}]),
        # The kernel span carries the *head* trace (the context active
        # under the batch span) but must appear in the member's tree too.
        make_record("diagnose.batch_kernel", head, chunk_span,
                    parent_id=batch_span),
    ]
    return head, member, records


class TestTreeAssembly:
    def test_head_trace_tree(self):
        head, _member, records = _batch_records()
        tree = assemble_tree(records, head)
        assert tree["span_count"] == 3
        assert len(tree["roots"]) == 1
        root = tree["roots"][0]
        assert root["name"] == "service.request"
        batch = root["children"][0]
        assert batch["name"] == "service.batch"
        assert "linked" not in batch
        assert batch["children"][0]["name"] == "diagnose.batch_kernel"

    def test_member_trace_grafts_batch_and_chunk(self):
        _head, member, records = _batch_records()
        tree = assemble_tree(records, member)
        assert tree["span_count"] == 3
        assert len(tree["roots"]) == 1, "member trace must read as ONE tree"
        root = tree["roots"][0]
        batch = root["children"][0]
        assert batch["name"] == "service.batch"
        assert batch["linked"] is True
        assert batch["children"][0]["name"] == "diagnose.batch_kernel"

    def test_unknown_trace_is_empty(self):
        _head, _member, records = _batch_records()
        tree = assemble_tree(records, new_trace_id())
        assert tree["span_count"] == 0 and tree["roots"] == []

    def test_pids_collected(self):
        head, _member, records = _batch_records()
        records[-1]["pid"] = os.getpid() + 1  # a record from another process
        tree = assemble_tree(records, head)
        assert tree["pids"] == sorted({os.getpid(), os.getpid() + 1})

    def test_records_for_trace_includes_parent_chain_descendants(self):
        head, member, records = _batch_records()
        rec = FlightRecorder(capacity=16)
        for record in records:
            rec.record(record)
        for trace_id in (head, member):
            names = sorted(r["name"] for r in rec.records_for_trace(trace_id))
            assert names == ["diagnose.batch_kernel", "service.batch",
                             "service.request"]
