"""Supervisor tests over tiny fake workers (forked, no real servers).

Each fake worker entry runs in a forked child and speaks the control
protocol; the supervisor's selectors loop runs on a background thread
with signal installation off, driven through ``request_drain()`` /
``request_rolling_restart()``.
"""

import json
import os
import re
import signal
import socket
import threading
import time

import pytest

from repro.cluster import BROKEN, READY, ClusterSupervisor
from repro.cluster.control import FrameDecoder, send_message
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.service.server import ThreadedServer
from repro.telemetry import METRICS, Histogram

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="prefork cluster needs os.fork")


def one_request_histogram():
    hist = Histogram()
    hist.observe(0.002)
    return hist.to_dict()


def obedient_entry(index, control_sock, on_frame=None):
    """Heartbeats until SIGTERM, then drains and exits 0.  ``on_frame``
    (if given) answers each supervisor frame read between beats."""
    stop = []
    decoder = FrameDecoder()
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    send_message(control_sock, {"type": "ready", "slot": index,
                                "pid": os.getpid(), "port": 40000 + index})
    while not stop:
        try:
            send_message(control_sock, {
                "type": "heartbeat", "draining": False,
                "requests": {"ok": 1},
                "metrics": {
                    "counters": {"service.requests{code=ok}": 1},
                    "gauges": {"process.rss_bytes": 1000 + index},
                    "histograms": {
                        "service.request_seconds{stage=total}":
                            one_request_histogram(),
                    },
                },
            })
        except OSError:
            return 0
        time.sleep(0.03)
        if on_frame is not None:
            control_sock.setblocking(False)
            try:
                for message in decoder.feed(control_sock.recv(65536)):
                    on_frame(control_sock, message)
            except (BlockingIOError, InterruptedError):
                pass
            finally:
                control_sock.setblocking(True)
    try:
        send_message(control_sock, {"type": "drained", "slot": index})
    except OSError:
        pass
    return 0


def echo_trace_entry(index, control_sock):
    """Obedient, and answers ``trace`` debug frames with the trace id it
    was asked for."""
    def reply(sock, message):
        send_message(sock, {
            "type": "debug_reply", "id": message["id"], "op": message["op"],
            "body": {"trace_id": message["args"]["trace_id"], "records": []},
        })

    return obedient_entry(index, control_sock, on_frame=reply)


def crashy_entry(index, control_sock):
    """Dies immediately — the crash-loop case."""
    return 3


def silent_entry(index, control_sock):
    """Never reports ready (a worker stuck prewarming); exits on SIGTERM."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    while not stop:
        time.sleep(0.02)
    return 0


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def http_get(port, path, method="GET", headers=(), request_line=None):
    """Raw-socket request: ``request_line`` overrides the whole first
    line; ``headers`` are extra ``"Name: value"`` lines."""
    first = request_line or f"{method} {path} HTTP/1.1"
    head = "\r\n".join([first, "Host: t", *headers])
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(f"{head}\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), body


def exchange(port, data, timeout=5.0, closes=False):
    """Send raw request bytes; the first response's head and body.  With
    ``closes``, the endpoint must also close the connection after it."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        try:
            sock.sendall(data)
        except OSError:
            pass  # the endpoint may answer before reading it all
        received = b""
        while b"\r\n\r\n" not in received:
            chunk = sock.recv(65536)
            assert chunk, f"closed without a reply: {received[:200]!r}"
            received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, "closed mid-body"
            body += chunk
        if closes:
            assert sock.recv(65536) == b"", "connection left open"
    return head, body


@pytest.fixture
def cluster():
    """Factory: a started supervisor + its run() thread; drains on teardown."""
    running = []
    # The supervisor's own registry is the merge base; start it empty so
    # fleet counts reflect only the fake workers' heartbeats.
    METRICS.reset()

    def _start(**kwargs):
        kwargs.setdefault("host", "127.0.0.1")
        kwargs.setdefault("port", 0)
        kwargs.setdefault("heartbeat_s", 0.05)
        kwargs.setdefault("worker_entry", obedient_entry)
        supervisor = ClusterSupervisor(**kwargs)
        supervisor.start()
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(code=supervisor.run()), daemon=True)
        thread.start()
        running.append((supervisor, thread))
        return supervisor, thread, result

    yield _start
    for supervisor, thread in running:
        if thread.is_alive():
            supervisor.request_drain()
            thread.join(20)


def all_ready(supervisor):
    return all(slot.state == READY for slot in supervisor.slots)


class TestFleetHealth:
    def test_quorum_healthz_and_aggregated_metrics(self, cluster):
        supervisor, _, _ = cluster(workers=2)
        assert wait_until(lambda: all_ready(supervisor))

        status, body = http_get(supervisor.control_port, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == {"configured": 2, "live": 2, "quorum": 1}
        assert len(health["worker_table"]) == 2

        assert wait_until(lambda: all(s.metrics for s in supervisor.slots))
        status, body = http_get(supervisor.control_port, "/metrics")
        metrics = json.loads(body)
        assert status == 200
        # Counters from both workers sum; per-worker gauges stay apart.
        registry = metrics["registry"]
        assert registry["counters"]["service.requests{code=ok}"] == 2
        assert "process.rss_bytes{worker=0}" in registry["gauges"]
        assert "process.rss_bytes{worker=1}" in registry["gauges"]
        assert registry["gauges"]["cluster.worker.up{worker=0}"] == 1
        # Fleet latency: both workers' request_seconds histograms merged
        # bucket-wise, with every stage present.
        fleet = metrics["fleet_latency"]
        assert set(fleet) == {"total", "queue_wait", "execute"}
        assert fleet["total"]["count"] == 2
        assert fleet["total"]["p50_ms"] > 0
        assert fleet["execute"]["count"] == 0
        histogram = registry["histograms"][
            "service.request_seconds{stage=total}"]
        assert sum(histogram["buckets"].values()) == 2
        assert metrics["requests"]["ok"] == 2

    def test_prometheus_exposition(self, cluster):
        supervisor, _, _ = cluster(workers=2)
        assert wait_until(lambda: all(s.metrics for s in supervisor.slots))
        status, body = http_get(supervisor.control_port,
                                "/metrics?format=prometheus")
        text = body.decode()
        assert status == 200
        assert 'repro_cluster_worker_up{worker="0"} 1' in text
        assert 'repro_cluster_worker_restarts{worker="1"} 0' in text
        assert "repro_service_requests_total" in text
        assert ("# TYPE repro_service_request_seconds histogram"
                in text)
        assert ('repro_service_request_seconds_bucket'
                '{le="+Inf",stage="total"} 2') in text
        assert 'repro_service_request_seconds_count{stage="total"} 2' in text

    def test_unknown_route_404(self, cluster):
        supervisor, _, _ = cluster(workers=1)
        assert wait_until(lambda: all_ready(supervisor))
        status, _ = http_get(supervisor.control_port, "/nope")
        assert status == 404


def _get(target, *headers):
    return "\r\n".join([f"GET {target} HTTP/1.1", "Host: t", *headers,
                         "", ""]).encode()


#: (case id, raw request, status, error code): the framing and routing
#: contract the diagnosis server and the control port share.  A ``None``
#: code is a success reply that must close the connection after it.
WIRE_CASES = [
    ("http10-healthz", b"GET /healthz HTTP/1.0\r\n\r\n", 200, None),
    ("request-line-garbage", b"GARBAGE\r\n\r\n", 400, "malformed_payload"),
    ("request-line-no-version", b"GET /healthz\r\n\r\n", 400,
     "malformed_payload"),
    ("request-line-bad-version", b"GET /healthz SPDY/3\r\n\r\n", 400,
     "malformed_payload"),
    ("header-without-colon", _get("/healthz", "Bogus header"), 400,
     "malformed_payload"),
    ("head-over-limit", _get("/healthz", "X-Pad: " + "a" * 20_000), 400,
     "malformed_payload"),
    ("header-line-over-64k", _get("/healthz", "X-Pad: " + "a" * 70_000), 400,
     "malformed_payload"),
    ("bad-content-length", _get("/healthz", "Content-Length: many"), 400,
     "malformed_payload"),
    ("transfer-encoding", _get("/healthz", "Transfer-Encoding: chunked"),
     400, "malformed_payload"),
    ("unknown-route", _get("/nope"), 404, "no_such_route"),
    ("post-metrics", b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n", 405,
     "method_not_allowed"),
    ("delete-metrics", b"DELETE /metrics HTTP/1.1\r\nHost: t\r\n\r\n", 405,
     "method_not_allowed"),
    ("debug-limit-not-int", _get("/debug/requests?limit=many"), 400,
     "invalid_argument"),
    ("debug-seconds-not-number", _get("/debug/profile?seconds=soon"), 400,
     "invalid_argument"),
    ("debug-seconds-nan", _get("/debug/profile?seconds=nan"), 400,
     "invalid_argument"),
    ("debug-seconds-inf", _get("/debug/profile?seconds=inf"), 400,
     "invalid_argument"),
    ("debug-hz-not-int", _get("/debug/profile?hz=fast"), 400,
     "invalid_argument"),
    ("debug-trace-empty-id", _get("/debug/trace/"), 400, "invalid_argument"),
]


@pytest.fixture(scope="class")
def endpoints():
    """A supervisor over one fake worker and a single diagnosis server,
    started in that order so the fork happens before any server thread
    exists.  Maps endpoint name -> port."""
    supervisor = ClusterSupervisor(host="127.0.0.1", port=0, workers=1,
                                   heartbeat_s=0.05,
                                   worker_entry=obedient_entry)
    supervisor.start()
    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()
    server = ThreadedServer(port=0)
    ports = {"server": server.start(), "control": supervisor.control_port}
    assert wait_until(lambda: all_ready(supervisor))
    yield ports
    server.stop(drain=False)
    supervisor.request_drain()
    thread.join(20)


class TestControlHttp:
    """The control port answers HTTP exactly as the server does: one
    table of wire cases runs against both, then the control port's own
    routes."""

    @pytest.mark.parametrize("endpoint", ["server", "control"])
    @pytest.mark.parametrize("raw,status,code", [
        pytest.param(raw, status, code, id=name)
        for name, raw, status, code in WIRE_CASES])
    def test_wire_case(self, endpoints, endpoint, raw, status, code):
        head, body = exchange(endpoints[endpoint], raw, closes=code is None)
        assert head.startswith(b"HTTP/1.1 %d " % status), head
        if code in (None, "malformed_payload"):
            assert b"\r\nConnection: close" in head
        if code is None:
            assert json.loads(body)["status"] == "ok"
            return
        error = json.loads(body)["error"]
        assert error["code"] == code
        assert error["message"]

    @pytest.mark.parametrize("endpoint", ["server", "control"])
    def test_client_raises_service_error(self, endpoints, endpoint):
        with ServiceClient(port=endpoints[endpoint]) as client:
            with pytest.raises(ServiceError) as exc:
                client.debug_trace("   ")
        assert exc.value.code == "invalid_argument"

    def test_no_live_workers_503(self, cluster):
        supervisor, _, _ = cluster(workers=1, worker_entry=silent_entry)
        with ServiceClient(port=supervisor.control_port) as client:
            with pytest.raises(ServiceError) as exc:
                client.debug_requests(limit=5)
        assert exc.value.code == "no_live_workers"
        assert exc.value.status == 503

    def test_trace_id_unquoted(self, cluster):
        supervisor, _, _ = cluster(workers=1, worker_entry=echo_trace_entry)
        assert wait_until(lambda: all_ready(supervisor))
        status, body = http_get(supervisor.control_port,
                                "/debug/trace/abc%2Fdef%20x")
        assert status == 200
        tree = json.loads(body)
        assert tree["trace_id"] == "abc/def x"
        assert tree["workers"] == [0]

    def test_metrics_negotiation_matches_server(self, cluster):
        supervisor, _, _ = cluster(workers=1)
        assert wait_until(lambda: all(s.metrics for s in supervisor.slots))
        port = supervisor.control_port
        for target, headers, prometheus in (
            ("/metrics", (), False),
            ("/metrics", ("Accept: text/plain",), True),
            ("/metrics", ("accept: application/json, text/plain",), False),
            ("/metrics?format=prometheus", (), True),
            ("/metrics?format=json", ("Accept: text/plain",), False),
            ("/metrics?format=weird", ("Accept: text/plain",), False),
        ):
            status, body = http_get(port, target, headers=headers)
            assert status == 200
            assert body.startswith(b"# TYPE") == prometheus, (target, headers)
            if not prometheus:
                assert "fleet_latency" in json.loads(body)


class TestRespawn:
    def test_kill_minus_nine_respawns(self, cluster):
        supervisor, _, _ = cluster(workers=2, backoff_base_s=0.05,
                                   min_uptime_s=0.3)
        assert wait_until(lambda: all_ready(supervisor))
        victim = supervisor.slots[0].pid
        os.kill(victim, signal.SIGKILL)
        assert wait_until(
            lambda: supervisor.slots[0].state == READY
            and supervisor.slots[0].pid != victim)
        assert supervisor.slots[0].restarts == 1
        status, body = http_get(supervisor.control_port, "/healthz")
        assert status == 200
        assert json.loads(body)["workers"]["live"] == 2

    def test_crash_loop_trips_breaker_and_exits_1(self):
        supervisor = ClusterSupervisor(
            host="127.0.0.1", port=0, workers=2,
            worker_entry=crashy_entry,
            backoff_base_s=0.02, backoff_cap_s=0.05,
            breaker_threshold=2, heartbeat_s=0.05,
        )
        supervisor.start()
        code = supervisor.run()  # returns once every slot is broken
        assert code == 1
        assert all(slot.state == BROKEN for slot in supervisor.slots)
        # restarts counts unplanned exits: breaker_threshold of them
        # (initial spawn's crash + one respawn's crash), then no more.
        assert all(slot.restarts == 2 for slot in supervisor.slots)

    def test_healthz_503_below_quorum(self, cluster):
        supervisor, _, _ = cluster(workers=2, quorum=2,
                                   backoff_base_s=5.0, min_uptime_s=30.0)
        assert wait_until(lambda: all_ready(supervisor))
        # min_uptime 30s makes the kill a "fast exit" -> 5s backoff, so
        # the fleet stays at 1/2 long enough to observe 503.
        os.kill(supervisor.slots[0].pid, signal.SIGKILL)
        assert wait_until(lambda: supervisor.live_workers() == 1)
        status, body = http_get(supervisor.control_port, "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "unhealthy"


class TestGracefulOps:
    def test_drain_exits_zero(self, cluster):
        supervisor, thread, result = cluster(workers=2)
        assert wait_until(lambda: all_ready(supervisor))
        supervisor.request_drain()
        thread.join(20)
        assert not thread.is_alive()
        assert result["code"] == 0

    def test_rolling_restart_replaces_all_never_below_n_minus_1(self, cluster):
        supervisor, _, _ = cluster(workers=3)
        assert wait_until(lambda: all_ready(supervisor))
        before = [slot.pid for slot in supervisor.slots]
        min_live = [len(before)]

        def watch():
            while not done.is_set():
                min_live[0] = min(min_live[0], supervisor.live_workers())
                time.sleep(0.005)

        done = threading.Event()
        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        supervisor.request_rolling_restart()
        rolled = wait_until(
            lambda: all(slot.state == READY and slot.pid not in before
                        for slot in supervisor.slots),
            timeout=30)
        done.set()
        watcher.join(5)
        assert rolled
        assert min_live[0] >= len(before) - 1
