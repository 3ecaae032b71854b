"""Request tracing + debug plane, end to end over HTTP.

A client-submitted trace id must come back from
``GET /debug/trace/<id>`` as a single assembled span tree containing
spans from at least three tiers — server request, engine batch, and the
diagnosis kernel that ran under the batch.
"""

import gc
import threading

import pytest

from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.telemetry import (
    FLIGHT,
    disable_tracing,
    enable_tracing,
    new_trace_id,
    trace_enabled,
)
from repro.telemetry.flightrec import SLOW_KEEP

from .conftest import SMALL, GatedEngine, coalesce_behind_gate


def small_payload(fault_index=0, **overrides):
    payload = dict(SMALL, fault_index=fault_index)
    payload.update(overrides)
    return payload


@pytest.fixture(autouse=True)
def reset_flight():
    FLIGHT.reset()
    yield
    FLIGHT.reset()


class TestTraceContext:
    def test_client_trace_id_echoed(self, live_server):
        _, port = live_server()
        trace_id = new_trace_id()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            reply = client.diagnose(small_payload(0), trace_id=trace_id)
        assert reply.trace_id == trace_id

    def test_server_mints_trace_id_when_client_sends_none(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            reply = client.diagnose(small_payload(0))
        assert reply.trace_id and len(reply.trace_id) == 32
        int(reply.trace_id, 16)  # well-formed hex

    def test_distinct_requests_get_distinct_traces(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            ids = {client.diagnose(small_payload(i % 3)).trace_id
                   for i in range(4)}
        assert len(ids) == 4


class TestThreeTierTraceTree:
    def test_trace_tree_spans_request_batch_and_kernel(self, live_server):
        """One client trace id -> one tree: request -> batch -> kernel,
        for the coalesced batch's head and for a linked member alike."""
        was_enabled = trace_enabled()
        enable_tracing()
        try:
            # The first request holds the engine busy so the others
            # queue and land in one batch.
            engine = GatedEngine()
            server, port = live_server(engine=engine, batch_max=32)
            ids = [new_trace_id() for _ in range(SMALL["fault_count"])]

            def fire(k):
                with ServiceClient(port=port) as client:
                    client.diagnose(small_payload(k), trace_id=ids[k])

            with ServiceClient(port=port) as client:
                client.wait_ready()
            coalesce_behind_gate(server, engine, fire, range(len(ids)))

            batch = max((r for r in FLIGHT.since()
                         if r["name"] == "service.batch"),
                        key=lambda r: len(r.get("links", ())))
            assert batch.get("links"), "requests did not coalesce"
            head, member = batch["trace_id"], batch["links"][0]["trace_id"]
            with ServiceClient(port=port) as client:
                for trace_id in (head, member):
                    tree = client.debug_trace(trace_id)
                    assert tree["trace_id"] == trace_id
                    assert tree["span_count"] >= 3
                    assert len(tree["roots"]) == 1, "must assemble as ONE tree"
                    root = tree["roots"][0]
                    assert root["name"] == "service.request"
                    node = next(c for c in root["children"]
                                if c["name"] == "service.batch")
                    assert any(c["name"] == "diagnose.batch_kernel"
                               for c in node["children"]), node
        finally:
            if not was_enabled:
                disable_tracing()


def _retained_span_objects():
    """Span records (dicts) and span objects alive anywhere in the heap."""
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if (isinstance(obj, dict) and "span_id" in obj
                   and "name" in obj)
               or hasattr(type(obj), "span_id"))


class TestTracedServer:
    @pytest.fixture
    def traced_small_ring(self):
        was_enabled, capacity = trace_enabled(), FLIGHT.capacity
        enable_tracing()
        FLIGHT.resize(16)
        yield 16
        FLIGHT.resize(capacity)
        if not was_enabled:
            disable_tracing()

    def test_retention_bounded_and_kernel_spans_in_trace(
            self, live_server, traced_small_ring):
        """With tracing on, every span lands in the bounded ring: the
        heap never holds more span records than the ring plus the slow
        reservoir, and the kernel span under each batch reaches
        ``/debug/trace``."""
        capacity = traced_small_ring
        baseline = _retained_span_objects()
        server, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            for _ in range(3):
                for k in range(20):
                    client.diagnose(small_payload(k % SMALL["fault_count"]))
                assert len(FLIGHT.since()) <= capacity
                assert (_retained_span_objects() - baseline
                        <= capacity + SLOW_KEEP + 4)
            trace_id = new_trace_id()
            client.diagnose(small_payload(0), trace_id=trace_id)
            tree = client.debug_trace(trace_id)
        assert FLIGHT.recorded > 3 * capacity
        (root,) = tree["roots"]
        assert root["name"] == "service.request"
        (batch,) = [c for c in root["children"]
                    if c["name"] == "service.batch"]
        assert "diagnose.batch_kernel" in {c["name"]
                                           for c in batch["children"]}
        del tree, root, batch  # the fetched copies, not retained spans
        server.stop()
        assert _retained_span_objects() - baseline <= capacity + SLOW_KEEP + 4


class TestDebugEndpoints:
    def test_debug_requests_lists_recent_records(self, live_server):
        _, port = live_server()
        trace_id = new_trace_id()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            client.diagnose(small_payload(0), trace_id=trace_id)
            snap = client.debug_requests(limit=10)
        assert snap["capacity"] > 0 and snap["recorded"] >= 1
        assert "pid" in snap
        mine = [r for r in snap["recent"] if r["trace_id"] == trace_id]
        assert mine and mine[0]["kind"] == "request"
        assert mine[0]["status"] == "ok"
        # Slow reservoir buckets by workload key.
        key = f"{SMALL['circuit']}/two-step"
        assert any(r["trace_id"] == trace_id for r in snap["slow"][key])

    def test_debug_requests_records_errors(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            with pytest.raises(ServiceError):
                client.diagnose({"circuit": "nope", "fault_index": 0})
            snap = client.debug_requests()
        errors = [r for records in snap["errors"].values() for r in records]
        assert any(r["status"] == "circuit_not_found" for r in errors)

    def test_debug_flightrec_resizes_recorder_live(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            state = client.debug_flightrec()
            assert state["enabled"] and state["capacity"] > 0
            # Disable live: subsequent requests leave no records.
            assert client.debug_flightrec(capacity=0)["enabled"] is False
            trace_id = new_trace_id()
            client.diagnose(small_payload(0), trace_id=trace_id)
            snap = client.debug_requests()
            assert not any(r["trace_id"] == trace_id
                           for r in snap["recent"])
            # Re-enable live: recording resumes in the same process.
            assert client.debug_flightrec(capacity=64)["capacity"] == 64
            trace_id = new_trace_id()
            client.diagnose(small_payload(1), trace_id=trace_id)
            snap = client.debug_requests()
            assert any(r["trace_id"] == trace_id for r in snap["recent"])

    def test_debug_flightrec_rejects_bad_capacity(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            with pytest.raises(ServiceError) as excinfo:
                client.debug_flightrec(capacity=-1)
            assert excinfo.value.code == "invalid_argument"

    def test_debug_trace_rejects_malformed_id(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            with pytest.raises(ServiceError) as exc:
                client.debug_trace("   ")
            assert exc.value.code == "invalid_argument"

    def test_debug_trace_unknown_id_is_empty_tree(self, live_server):
        _, port = live_server()
        trace_id = new_trace_id()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            tree = client.debug_trace(trace_id)
        assert tree["trace_id"] == trace_id
        assert tree["span_count"] == 0 and tree["roots"] == []

    def test_debug_profile_returns_folded_stacks(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            folded = client.debug_profile(seconds=0.3)
        lines = [line for line in folded.splitlines() if line.strip()]
        assert lines, "an idle server still has sampleable threads"
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) >= 1

    def test_concurrent_profile_bursts_get_429(self, live_server):
        _, port = live_server()
        outcomes = []

        def burst():
            with ServiceClient(port=port) as client:
                try:
                    outcomes.append(("ok", client.debug_profile(seconds=1.0)))
                except ServiceError as exc:
                    outcomes.append(("err", exc))

        with ServiceClient(port=port) as client:
            client.wait_ready()
        threads = [threading.Thread(target=burst) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        codes = sorted(kind for kind, _ in outcomes)
        assert codes == ["err", "ok"], outcomes
        error = next(v for kind, v in outcomes if kind == "err")
        assert error.code == "queue_full"
        assert error.retry_after_s


    @pytest.mark.parametrize("seconds", ["nan", "inf", "-inf"])
    def test_non_finite_profile_seconds_rejected(self, live_server, seconds):
        """A non-finite burst length answers 400 and leaves no sampler
        thread behind (``time.sleep(nan)`` used to raise mid-burst)."""
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            status, data = client._request(
                "GET", f"/debug/profile?seconds={seconds}", raw=True)
            with pytest.raises(ServiceError) as exc:
                client.debug_profile(seconds=float(seconds))
        assert status == 400, data
        assert exc.value.code == "invalid_argument"
        assert not [t for t in threading.enumerate()
                    if t.name == "repro-profiler"]


class TestOutcomeLabels:
    def test_saturated_queue_shows_rejected_outcome(self, live_server):
        """429s from admission control must land in the error taxonomy
        with a distinct outcome label, not blend into generic errors."""
        from .test_server import SlowEngine

        _, port = live_server(engine=SlowEngine(0.5), queue_depth=1,
                              batch_max=1)

        rejected = []

        def fire(k):
            with ServiceClient(port=port) as client:
                try:
                    client.diagnose(small_payload(0, request_id=str(k)))
                except ServiceError as exc:
                    rejected.append(exc.code)

        with ServiceClient(port=port) as client:
            client.wait_ready()
        threads = [threading.Thread(target=fire, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert "queue_full" in rejected

        with ServiceClient(port=port) as client:
            counters = client.metrics()["registry"]["counters"]
        key = "service.requests{code=queue_full,outcome=rejected}"
        assert counters.get(key, 0) >= 1, sorted(
            k for k in counters if k.startswith("service.requests"))
        assert counters.get("service.requests{code=ok,outcome=ok}", 0) >= 1
