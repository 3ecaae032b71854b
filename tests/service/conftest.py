"""Service-test fixtures: a tiny shared workload spec and live servers.

All service tests use the same small s953 workload (32 patterns, 6
faults) so the process-wide cache compiles it once for the whole suite.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.engine import DiagnosisEngine
from repro.service.protocol import DiagnoseRequest
from repro.service.server import ThreadedServer

#: The canonical tiny request knobs every service test shares.
SMALL = dict(circuit="s953", num_patterns=32, fault_count=6)


def small_request(fault_index=0, **overrides):
    payload = dict(SMALL, fault_index=fault_index)
    payload.update(overrides)
    return DiagnoseRequest.from_payload(payload)


class GatedEngine(DiagnosisEngine):
    """Holds every batch in the engine until :attr:`gate` is set.

    The server dispatches the moment its engine is idle, so the only way
    to make requests coalesce (or to keep one in flight) is to keep the
    engine busy: the first batch blocks here while later requests queue.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.gate = threading.Event()

    def execute_batch(self, requests, traces=None):
        self.entered.set()
        if not self.gate.wait(30):
            raise RuntimeError("gate never opened")
        return super().execute_batch(requests, traces=traces)


def wait_until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def coalesce_behind_gate(server, engine, fire, args):
    """Run ``fire(arg)`` on one thread per arg: the first request holds
    the gated engine, every later one queues behind it, then the gate
    opens so the queued requests go out as one batch."""
    threads = [threading.Thread(target=fire, args=(arg,)) for arg in args]
    threads[0].start()
    try:
        assert engine.entered.wait(30), "first request never reached the engine"
        for thread in threads[1:]:
            thread.start()
        wait_until(lambda: server.server.queue.depth >= len(threads) - 1)
    finally:
        engine.gate.set()
    for thread in threads:
        if thread.ident is not None:
            thread.join(60)


@pytest.fixture
def live_server():
    """A running ThreadedServer on an ephemeral port; stops on teardown."""
    started = []

    def _start(**kwargs):
        kwargs.setdefault("port", 0)
        server = ThreadedServer(**kwargs)
        port = server.start()
        started.append(server)
        return server, port

    yield _start
    for server in started:
        server.stop(drain=False)
