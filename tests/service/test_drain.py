"""Drain-path coverage: in-flight work completes, new work is refused,
and a SIGTERM'd ``repro serve`` process exits 0.

The in-process tests drive ThreadedServer directly; the subprocess test
exercises the real signal handler wired up by ``serve_main``.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service.client import ServiceClient, TransportError
from repro.service.protocol import ServiceError

from .conftest import SMALL, GatedEngine, wait_until

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestInProcessDrain:
    def test_inflight_batch_completes_then_new_work_refused(self, live_server):
        # A gated engine holds the admitted request in flight, giving the
        # drain something genuinely in-flight to finish.
        engine = GatedEngine()
        server, port = live_server(engine=engine)
        client = ServiceClient(port=port)
        client.wait_ready(timeout_s=60)
        outcome = {}

        def admitted():
            try:
                outcome["reply"] = client.diagnose(dict(SMALL, fault_index=0))
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        worker = threading.Thread(target=admitted)
        worker.start()
        stopper = threading.Thread(target=server.stop, kwargs=dict(drain=True))
        try:
            assert engine.entered.wait(30), "request never reached the engine"
            stopper.start()
            wait_until(lambda: server.server.draining)
        finally:
            engine.gate.set()
        stopper.join(30)
        worker.join(30)
        assert not stopper.is_alive()
        assert not worker.is_alive()
        assert "error" not in outcome, outcome
        assert outcome["reply"].candidate_cells

        # Post-drain the socket is gone (or answers shutting_down if the
        # request sneaks in during the draining window).
        late = ServiceClient(port=port)
        with pytest.raises((TransportError, ServiceError)) as excinfo:
            late.diagnose(dict(SMALL, fault_index=1))
        if isinstance(excinfo.value, ServiceError):
            assert excinfo.value.code == "shutting_down"
        late.close()
        client.close()

    def test_healthz_reports_draining(self, live_server):
        server, port = live_server()
        client = ServiceClient(port=port)
        client.wait_ready(timeout_s=60)
        assert client.health()["status"] == "ok"
        client.close()
        server.stop(drain=True)


#: ``repro serve`` whose engine holds every batch until a line arrives on
#: stdin, so the first batch stays in flight while later requests queue.
GATED_SERVE = """
import sys, threading
from repro.service.engine import DiagnosisEngine
from repro.service.server import serve_main

gate = threading.Event()
threading.Thread(target=lambda: (sys.stdin.readline(), gate.set()),
                 daemon=True).start()
execute_batch = DiagnosisEngine.execute_batch

def gated(self, requests, traces=None):
    gate.wait(60)
    return execute_batch(self, requests, traces=traces)

DiagnosisEngine.execute_batch = gated
sys.exit(serve_main(sys.argv[1:]))
"""


class TestSigtermDrain:
    @pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="needs SIGTERM")
    def test_sigterm_drains_inflight_and_exits_zero(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("REPRO_DISK_CACHE", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", GATED_SERVE,
             "--port", "0", "--no-disk-warm"],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=REPO_ROOT,
        )
        port = None
        try:
            for line in proc.stderr:
                text = line.decode("utf-8", "replace")
                if "serving on http://" in text:
                    port = int(text.rsplit(":", 1)[1])
                    break
            assert port, "server never printed its listen banner"
            # The banner pipe must keep draining or the server can block
            # on a full stderr buffer mid-shutdown.
            drainer = threading.Thread(
                target=lambda: [None for _ in proc.stderr], daemon=True)
            drainer.start()

            client = ServiceClient(port=port)
            client.wait_ready(timeout_s=60)

            # Launch a wave of requests, SIGTERM while one is in flight
            # and the rest are queued, and require every outcome to be ok
            # or an orderly refusal.
            outcomes = []
            lock = threading.Lock()

            def fire(i):
                c = ServiceClient(port=port)
                try:
                    c.diagnose(dict(SMALL, fault_index=i % SMALL["fault_count"]))
                    verdict = "ok"
                except ServiceError as exc:
                    verdict = exc.code
                except TransportError:
                    verdict = "transport"
                finally:
                    c.close()
                with lock:
                    outcomes.append(verdict)

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            try:
                wait_until(lambda: sum(
                    client.health()[k] for k in ("inflight", "queue_depth"))
                    == len(threads))
                proc.send_signal(signal.SIGTERM)
                wait_until(lambda: client.health()["status"] == "draining")
            finally:
                proc.stdin.write(b"open\n")  # let the held batch run
                proc.stdin.flush()
            for t in threads:
                t.join(60)
            client.close()

            assert outcomes, "no request outcomes recorded"
            assert set(outcomes) <= {"ok", "shutting_down", "transport"}, outcomes
            assert "ok" in outcomes, outcomes

            # Once drained, the port refuses new connections...
            deadline = time.monotonic() + 30
            refused = False
            while time.monotonic() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=1).close()
                    time.sleep(0.05)
                except OSError:
                    refused = True
                    break
            assert refused, "drained server still accepts connections"
            # ...and the process exits cleanly.
            assert proc.wait(30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)
