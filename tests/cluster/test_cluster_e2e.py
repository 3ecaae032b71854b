"""End-to-end cluster tests: real forked DiagnosisServer workers behind
one shared port, driven through ServiceClient.

One comprehensive scenario per sharing mode keeps the fork/warm cost
bounded; the reuseport scenario exercises the full lifecycle (serve,
verify against the direct engine, kill -9 + respawn, drain to exit 0).
"""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.cluster import ClusterSupervisor, READY
from repro.service.client import ServiceClient, TransportError
from repro.service.engine import DiagnosisEngine
from repro.service.protocol import DiagnoseRequest

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="prefork cluster needs os.fork")

#: Same tiny workload the service tests share (compiles once per worker).
SMALL = dict(circuit="s953", num_patterns=32, fault_count=6)


def wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def http_get_json(port, path):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data.partition(b"\r\n\r\n")[2])


def start_cluster(**overrides):
    kwargs = dict(
        host="127.0.0.1", port=0, workers=2,
        heartbeat_s=0.2, backoff_base_s=0.1, min_uptime_s=0.5,
        server_kwargs={},
        engine_kwargs={},
        disk_warm=False,
    )
    kwargs.update(overrides)
    supervisor = ClusterSupervisor(**kwargs)
    supervisor.start()
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(code=supervisor.run()), daemon=True)
    thread.start()
    return supervisor, thread, result


def all_ready(supervisor):
    return all(slot.state == READY for slot in supervisor.slots)


def diagnose_with_retry(client, payload, attempts=5):
    """Diagnose, riding out the transient resets a kill -9 can cause.

    The cluster's guarantee under SIGKILL is *recovery*, not zero dropped
    connections — a SYN can land on the dying listener.  Clients retry
    (see loadgen --retries); the test does the same.
    """
    for attempt in range(attempts):
        try:
            return client.diagnose(payload)
        except TransportError:
            if attempt == attempts - 1:
                raise
            time.sleep(0.05 * (attempt + 1))


def direct_results():
    engine = DiagnosisEngine()
    requests = [DiagnoseRequest.from_payload(dict(SMALL, fault_index=i))
                for i in range(SMALL["fault_count"])]
    return [tuple(reply.candidate_cells)
            for reply in engine.execute_batch(requests)]


class TestReuseportCluster:
    def test_full_lifecycle(self):
        supervisor, thread, result = start_cluster(sharing="auto")
        client = None
        try:
            assert wait_until(lambda: all_ready(supervisor))
            client = ServiceClient(port=supervisor.port)
            client.wait_ready(timeout_s=60)

            # Replies through the cluster match the direct engine path.
            expected = direct_results()
            for round_ in range(2):
                for i in range(SMALL["fault_count"]):
                    reply = client.diagnose(dict(SMALL, fault_index=i))
                    assert tuple(reply.candidate_cells) == expected[i], (
                        f"round {round_} fault {i} diverged")

            # Fleet metrics see the traffic once heartbeats deliver it.
            assert wait_until(
                lambda: http_get_json(supervisor.control_port, "/metrics")
                .get("requests", {}).get("ok", 0) >= 12, timeout=10)

            # kill -9 one worker: the supervisor respawns it and the
            # (shared-port) service keeps answering correctly.
            victim = supervisor.slots[0].pid
            os.kill(victim, signal.SIGKILL)
            for i in range(SMALL["fault_count"]):
                reply = diagnose_with_retry(client, dict(SMALL, fault_index=i))
                assert tuple(reply.candidate_cells) == expected[i]
            assert wait_until(
                lambda: supervisor.slots[0].state == READY
                and supervisor.slots[0].pid != victim)
            health = http_get_json(supervisor.control_port, "/healthz")
            assert health["workers"]["live"] == 2
            assert any(w["restarts"] == 1 for w in health["worker_table"])
        finally:
            if client is not None:
                client.close()
            supervisor.request_drain()
            thread.join(30)
        assert not thread.is_alive()
        assert result["code"] == 0


class TestFleetCountersAcrossRespawn:
    def test_killed_workers_replies_stay_counted(self):
        supervisor, thread, result = start_cluster(sharing="auto")
        client = None

        def fleet_ok():
            return http_get_json(supervisor.control_port, "/metrics").get(
                "requests", {}).get("ok", 0)

        try:
            assert wait_until(lambda: all_ready(supervisor))
            client = ServiceClient(port=supervisor.port)
            client.wait_ready(timeout_s=60)
            received = 0
            for i in range(SMALL["fault_count"]):
                client.diagnose(dict(SMALL, fault_index=i))
                received += 1
            assert wait_until(lambda: fleet_ok() >= received, timeout=10)

            # Kill -9 the worker whose heartbeat reported the replies.
            slot = max(supervisor.slots,
                       key=lambda s: s.requests.get("ok", 0))
            assert slot.requests.get("ok", 0) > 0
            victim = slot.pid
            os.kill(victim, signal.SIGKILL)
            assert wait_until(lambda: slot.state == READY
                              and slot.pid != victim and slot.metrics)
            # The replacement has heartbeated: the fleet has not lost the
            # dead worker's replies.
            assert fleet_ok() >= received

            for i in range(SMALL["fault_count"]):
                diagnose_with_retry(client, dict(SMALL, fault_index=i))
                received += 1
            assert wait_until(lambda: fleet_ok() >= received, timeout=10), (
                f"fleet ok {fleet_ok()} < {received} replies received")
            payload = http_get_json(supervisor.control_port, "/metrics")
            assert payload["fleet_latency"]["total"]["count"] >= received
            assert sum(w["requests_total"]
                       for w in payload["worker_table"]) >= received
        finally:
            if client is not None:
                client.close()
            supervisor.request_drain()
            thread.join(30)
        assert not thread.is_alive()
        assert result["code"] == 0


class TestInheritCluster:
    def test_serves_and_drains_via_inherited_socket(self):
        supervisor, thread, result = start_cluster(sharing="inherit")
        client = None
        try:
            assert supervisor.sharing == "inherit"
            assert wait_until(lambda: all_ready(supervisor))
            client = ServiceClient(port=supervisor.port)
            client.wait_ready(timeout_s=60)
            expected = direct_results()
            for i in range(SMALL["fault_count"]):
                reply = client.diagnose(dict(SMALL, fault_index=i))
                assert tuple(reply.candidate_cells) == expected[i]
        finally:
            if client is not None:
                client.close()
            supervisor.request_drain()
            thread.join(30)
        assert not thread.is_alive()
        assert result["code"] == 0
