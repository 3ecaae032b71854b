"""Open-loop HTTP load generator: seeded Poisson schedule, two threads,
two keep-alive connections.

Arrivals follow a Poisson process conditioned on its count: a step of
``rate`` requests/s lasting ``duration`` s offers exactly
``round(rate * duration)`` requests at sorted uniform times, so every
seed offers the same load and differs only in when requests arrive.

Each connection is owned by one thread.  A free thread takes the next
request in schedule order, sleeps until it is due, sends it and waits for
the reply; when both connections are busy, due requests wait, and that
wait counts.  Latency is timed from the due time.  A thread that was free
before a request was due and still sent it late shows the generator's own
lateness, reported separately.  Only the standard library is used.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from common import median, percentile

CONNECTIONS = 2


@dataclass
class Sample:
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None
    #: Seconds the generator sent late although a connection was free
    #: (None when the request waited for a busy connection).
    own_lateness: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.due


def poisson_offsets(rate: float, duration: float, rng: random.Random) -> List[float]:
    """Arrival offsets in ``[0, duration)`` for one step."""
    count = max(1, round(rate * duration))
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


class LoadGenerator:
    """Two keep-alive connections to one server, reused across steps."""

    def __init__(self, host: str, port: int, path: str = "/diagnose",
                 timeout_s: float = 30.0):
        self.host, self.port, self.path = host, port, path
        self.timeout_s = timeout_s
        self._connections = [self._connect() for _ in range(CONNECTIONS)]

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)

    def close(self) -> None:
        for conn in self._connections:
            conn.close()

    def run_step(self, offsets: Sequence[float], bodies: Sequence[bytes],
                 give_up_after_s: float) -> "StepResult":
        """Send ``bodies[i]`` at ``start + offsets[i]``; block until every
        request completed, or ``give_up_after_s`` past the step's end (the
        rest then fail unsent)."""
        start = time.perf_counter() + 0.05
        samples = [Sample(i, start + off) for i, off in enumerate(offsets)]
        end = start + (offsets[-1] if offsets else 0.0)
        deadline = end + give_up_after_s
        cursor = iter(range(len(samples)))
        lock = threading.Lock()

        def worker(slot: int) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sample = samples[index]
                now = time.perf_counter()
                if now > deadline:
                    sample.error = "abandoned: step overran its drain limit"
                    sample.sent = sample.done = now
                    continue
                free_early = now < sample.due
                if free_early:
                    time.sleep(sample.due - now)
                self._send(slot, sample, bodies[index])
                if free_early:
                    sample.own_lateness = max(0.0, sample.sent - sample.due)

        threads = [threading.Thread(target=worker, args=(slot,), daemon=True)
                   for slot in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.perf_counter())
                        + self.timeout_s + 5.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("load generator thread did not finish")
        return StepResult(start=start, end=end, samples=samples)

    def _send(self, slot: int, sample: Sample, body: bytes) -> None:
        conn = self._connections[slot]
        sample.sent = time.perf_counter()
        try:
            conn.request("POST", self.path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            sample.body = response.read()
            sample.status = response.status
        except (OSError, http.client.HTTPException) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
            conn.close()
            self._connections[slot] = self._connect()
        sample.done = time.perf_counter()


@dataclass
class StepResult:
    start: float
    end: float
    samples: List[Sample]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def latencies_ms(self) -> List[float]:
        """Latency of every request from its due time; a failed request
        counts as infinitely late, so it misses every limit."""
        return [s.latency * 1000 if s.ok else float("inf")
                for s in self.samples]

    @property
    def drain_s(self) -> float:
        """Time from the last due request to the last reply."""
        return max(s.done for s in self.samples) - self.end

    @property
    def backlog(self) -> int:
        """Requests due before the step's last one that were not yet sent
        when it was due."""
        return sum(1 for s in self.samples if s.due < self.end < s.sent)

    def summary(self, slo_ms: float) -> Dict[str, float]:
        latencies = self.latencies_ms()
        own = [s.own_lateness * 1000 for s in self.samples
               if s.own_lateness is not None]
        p99 = percentile(latencies, 0.99)
        completed = [s for s in self.samples if s.ok]
        span = (max(s.done for s in completed) - self.start) if completed else 0.0
        return {
            "requests": len(self.samples),
            "failed": self.failed,
            "p50_ms": median(latencies),
            "p99_ms": p99,
            "throughput_rps": len(completed) / span if span > 0 else 0.0,
            "drain_ms": self.drain_s * 1000,
            "backlog": self.backlog,
            "lateness_p99_ms": percentile(own, 0.99) if own else 0.0,
            "meets_slo": (self.failed == 0 and p99 <= slo_ms
                          and self.drain_s * 1000 <= slo_ms),
        }
