"""End-to-end HTTP tests against a live threaded server."""

import http.client
import json
import re
import socket
import time

import pytest

from repro.service.client import ServiceClient, TransportError
from repro.service.engine import DiagnosisEngine
from repro.service.protocol import DiagnoseRequest, ServiceError

from .conftest import SMALL, GatedEngine, coalesce_behind_gate


def small_payload(fault_index=0, **overrides):
    payload = dict(SMALL, fault_index=fault_index)
    payload.update(overrides)
    return payload


class SlowEngine(DiagnosisEngine):
    """Holds every batch for a fixed time — lets tests fill the queue."""

    def __init__(self, delay_s: float):
        super().__init__()
        self.delay_s = delay_s

    def execute_batch(self, requests, traces=None):
        time.sleep(self.delay_s)
        return super().execute_batch(requests, traces=traces)


class TestHappyPath:
    def test_health_diagnose_metrics(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            health = client.health()
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0

            reply = client.diagnose(small_payload(0))
            assert reply.candidate_cells
            assert reply.batch_size >= 1

            metrics = client.metrics()
            assert metrics["queue"]["max_depth"] > 0
            assert metrics["batching"]["batches"] >= 1
            assert metrics["latency"]["total"]["count"] >= 1
            assert metrics["latency"]["total"]["p99_ms"] > 0
            assert metrics["requests"].get("ok", 0) >= 1
            assert metrics["cache"]["entries"] >= 1
            assert metrics["cache"]["bytes"] > 0
            # The full telemetry registry rides along for scrapers.
            assert "service.batch_size" in metrics["registry"]["histograms"]
            # Process gauges: uptime moves forward, RSS is a real size.
            assert metrics["uptime_seconds"] > 0
            assert metrics["process_rss_bytes"] is None or (
                metrics["process_rss_bytes"] > 1024 * 1024
            )

    def test_one_diagnose_observes_each_stage_once(self, live_server):
        _, port = live_server()
        key = "service.request_seconds{stage=%s}"
        with ServiceClient(port=port) as client:
            client.wait_ready()
            client.diagnose(small_payload(1))  # warm: compile + cache
            before = client.metrics()
            client.diagnose(small_payload(2))
            after = client.metrics()
        for stage in ("total", "queue_wait", "execute"):
            assert (after["latency"][stage]["count"]
                    - before["latency"][stage]["count"]) == 1, stage
            hists = [m["registry"]["histograms"][key % stage]
                     for m in (before, after)]
            assert hists[1]["count"] - hists[0]["count"] == 1
            assert (sum(hists[1]["buckets"].values())
                    - sum(hists[0]["buckets"].values())) == 1

    def test_keep_alive_serves_many_requests(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            replies = [client.diagnose(small_payload(i % 3)) for i in range(6)]
        assert all(r.candidate_cells for r in replies)


class TestErrorTaxonomyOverHttp:
    def test_unknown_circuit_404(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            with pytest.raises(ServiceError) as exc:
                client.diagnose({"circuit": "nope", "fault_index": 0})
            assert exc.value.code == "circuit_not_found"
            assert exc.value.status == 404

    def test_malformed_json_400(self, live_server):
        _, port = live_server()
        ServiceClient(port=port).wait_ready()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("POST", "/diagnose", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_get_diagnose_405(self, live_server):
        """The framing, 404 and shared 405 cases run against the server
        and the control port alike (tests/cluster/test_supervisor.py,
        ``WIRE_CASES``); ``/diagnose`` exists only here."""
        _, port = live_server()
        ServiceClient(port=port).wait_ready()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("GET", "/diagnose")
        response = conn.getresponse()
        assert response.status == 405
        error = json.loads(response.read())["error"]
        assert error["code"] == "method_not_allowed"
        conn.close()


def read_until_close(port, data, timeout=5.0):
    """Send raw bytes; everything the server answers until it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestKeepAliveFraming:
    def test_chunked_body_rejected_once_then_closed(self, live_server):
        """A chunked body is never read as the next request."""
        _, port = live_server()
        body = json.dumps(small_payload(0)).encode()
        received = read_until_close(port, (
            b"POST /diagnose HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"))
        assert received.count(b"HTTP/1.1 ") == 1, received
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(payload)["error"]["code"] == "malformed_payload"

    @pytest.mark.parametrize("token", ["Close", "CLOSE", "keep-alive, close"])
    def test_connection_close_token_any_case(self, live_server, token):
        _, port = live_server()
        received = read_until_close(port, (
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: %s\r\n\r\n"
            % token.encode()), timeout=3.0)
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(payload)["status"] == "ok"

    def test_http10_without_connection_header_closes(self, live_server):
        _, port = live_server()
        received = read_until_close(
            port, b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n", timeout=3.0)
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(payload)["status"] == "ok"

    def test_http10_keep_alive_token_keeps_the_connection(self, live_server):
        """Two HTTP/1.0 requests on one socket: the first asks to stay
        open, the second does not, so the server answers both and then
        closes."""
        _, port = live_server()
        received = read_until_close(port, (
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            b"GET /healthz HTTP/1.0\r\n\r\n"), timeout=3.0)
        assert received.count(b"HTTP/1.1 200 ") == 2, received
        assert re.findall(rb"\r\nConnection: ([a-z-]+)\r\n", received) == [
            b"keep-alive", b"close"]


class TestAdmissionControl:
    def test_queue_full_gets_429_with_retry_after(self, live_server):
        import threading

        _, port = live_server(
            engine=SlowEngine(0.6), queue_depth=1, batch_max=1)
        ServiceClient(port=port).wait_ready()
        results = {}

        def fire(name, delay):
            time.sleep(delay)
            with ServiceClient(port=port, timeout_s=30) as client:
                try:
                    results[name] = client.diagnose(small_payload(0))
                except ServiceError as exc:
                    results[name] = exc

        threads = [
            threading.Thread(target=fire, args=(name, delay))
            for name, delay in (("a", 0.0), ("b", 0.15), ("c", 0.3))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # a executes (0.6s), b waits in the depth-1 queue, c is rejected.
        codes = sorted(
            r.code for r in results.values() if isinstance(r, ServiceError))
        assert codes == ["queue_full"]
        rejected = next(r for r in results.values()
                        if isinstance(r, ServiceError))
        assert rejected.retry_after_s is not None

    def test_deadline_exceeded_504(self, live_server):
        _, port = live_server(engine=SlowEngine(0.8))
        with ServiceClient(port=port) as client:
            client.wait_ready()
            with pytest.raises(ServiceError) as exc:
                client.diagnose(small_payload(0, timeout_ms=100))
            assert exc.value.code == "deadline_exceeded"
            assert exc.value.status == 504
            metrics = client.metrics()
            assert metrics["timeouts"] >= 1


class TestBatchingOverHttp:
    def test_concurrent_same_workload_requests_coalesce(self, live_server):
        engine = GatedEngine()
        server, port = live_server(engine=engine, batch_max=16)
        ServiceClient(port=port).wait_ready()
        replies = {}

        def fire(i):
            with ServiceClient(port=port, timeout_s=30) as client:
                replies[i] = client.diagnose(small_payload(i))

        # Request 0 holds the engine; 1..4 queue behind it.
        coalesce_behind_gate(server, engine, fire, range(5))
        # At least one multi-request batch formed while the engine was busy.
        assert max(r.batch_size for r in replies.values()) >= 2


class TestPrometheusExposition:
    """GET /metrics content negotiation: JSON stays the default; the
    Prometheus text exposition is served for ``?format=prometheus`` or an
    ``Accept: text/plain`` scrape, and must parse as valid v0.0.4 text."""

    @staticmethod
    def _get(port, target, accept=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        headers = {"Accept": accept} if accept else {}
        conn.request("GET", target, headers=headers)
        response = conn.getresponse()
        body = response.read()
        conn.close()
        return response, body

    def _warmed_port(self, live_server):
        _, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            client.diagnose(small_payload(0))
        return port

    def test_format_param_serves_prometheus_text(self, live_server):
        from tests.telemetry.test_promexp import _parse

        port = self._warmed_port(live_server)
        response, body = self._get(port, "/metrics?format=prometheus")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith(
            "text/plain; version=0.0.4"
        )
        families, samples = _parse(body.decode())
        values = {(name, tuple(sorted(labels.items()))): value
                  for name, labels, value in samples}
        # Counters carry the _total suffix and real request activity.
        assert families["repro_service_requests_total"] == "counter"
        assert any(name == "repro_service_requests_total"
                   for name, _, _ in samples)
        # Process gauges from this PR.
        assert families["repro_service_uptime_seconds"] == "gauge"
        assert float(values[("repro_service_uptime_seconds", ())]) > 0
        if ("repro_process_rss_bytes", ()) in values:
            assert float(values[("repro_process_rss_bytes", ())]) > 1 << 20
        # The latency board renders as a real histogram with cumulative
        # buckets closed by +Inf.
        assert families["repro_service_request_seconds"] == "histogram"
        total_buckets = [
            (labels["le"], int(value)) for name, labels, value in samples
            if name == "repro_service_request_seconds_bucket"
            and labels["stage"] == "total"
        ]
        assert total_buckets, "no latency buckets for stage=total"
        counts = [c for _, c in total_buckets]
        assert counts == sorted(counts)
        assert total_buckets[-1][0] == "+Inf"

    def test_accept_header_negotiates_text(self, live_server):
        port = self._warmed_port(live_server)
        response, body = self._get(port, "/metrics", accept="text/plain")
        assert response.getheader("Content-Type").startswith("text/plain")
        assert b"# TYPE" in body

    def test_json_stays_default(self, live_server):
        port = self._warmed_port(live_server)
        for target, accept in (
            ("/metrics", None),
            ("/metrics", "application/json, text/plain"),
            ("/metrics?format=weird", "text/plain"),
        ):
            response, body = self._get(port, target, accept=accept)
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "application/json"
            )
            payload = json.loads(body)
            assert "uptime_seconds" in payload


class TestGracefulShutdown:
    def test_drain_serves_queued_work_then_refuses(self, live_server):
        server, port = live_server()
        with ServiceClient(port=port) as client:
            client.wait_ready()
            assert client.diagnose(small_payload(0)).candidate_cells
        server.stop(drain=True)
        with pytest.raises(TransportError):
            ServiceClient(port=port, timeout_s=2).health()
