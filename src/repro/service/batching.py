"""Bounded request queue with dispatch-on-idle, workload-keyed batching.

Requests arrive one HTTP connection at a time but share expensive compiled
state whenever their workload key matches, so the dispatcher coalesces
them.  A free dispatcher takes the oldest pending request plus every
same-key request already queued (up to ``batch_max``) and dispatches at
once; nothing is held open on a timer.  Batches still form under load:
the dispatcher asks for the next batch only after the previous one
returns, so whatever queued while the engine was busy goes out together
as **one** vectorized diagnosis call.  Requests with *other* keys are left
queued in arrival order — FIFO across keys, batched within a key.

Admission control is synchronous: :meth:`BatchQueue.offer` either accepts
the request (bounded by ``max_depth``) or raises ``queue_full`` with a
``Retry-After`` hint derived from the recent batch service rate — callers
get an answer immediately instead of waiting in an unbounded backlog.

Deadlines: every entry may carry an absolute ``deadline`` (monotonic
seconds).  Expired or abandoned (client timed out / disconnected) entries
are dropped at batch-formation time, so the engine never burns cycles on
a request nobody is waiting for.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from ..telemetry import METRICS
from .protocol import DiagnoseRequest, ServiceError


@dataclass
class PendingRequest:
    """One queued request plus its completion future and timing marks."""

    request: DiagnoseRequest
    future: "asyncio.Future"
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Absolute monotonic deadline (None = no per-request timeout).
    deadline: Optional[float] = None
    #: ``(trace_id, server_span_id)`` minted (or accepted) at the edge;
    #: the engine links the coalesced batch span to every member's pair.
    trace: Optional[Tuple[str, str]] = None

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    @property
    def abandoned(self) -> bool:
        """The waiter gave up (timeout/disconnect) — nothing to deliver to."""
        return self.future.done()


class BatchQueue:
    """FIFO-across-keys, coalescing-within-key bounded request queue."""

    def __init__(self, max_depth: int = 256, batch_max: int = 32):
        if max_depth < 1 or batch_max < 1:
            raise ValueError("max_depth and batch_max must be >= 1")
        self.max_depth = max_depth
        self.batch_max = batch_max
        self._pending: Deque[PendingRequest] = deque()
        self._cond: Optional[asyncio.Condition] = None
        #: EWMA of seconds consumed per request served (Retry-After hint).
        self._service_rate_s = 0.05
        self._closed = False

    # The condition must be created on the serving loop, not at import.
    def _condition(self) -> asyncio.Condition:
        if self._cond is None:
            self._cond = asyncio.Condition()
        return self._cond

    @property
    def depth(self) -> int:
        return len(self._pending)

    # -- producer side -------------------------------------------------------

    def offer(self, entry: PendingRequest) -> None:
        """Admit or reject immediately (raises ``queue_full`` / ``shutting_down``)."""
        if self._closed:
            raise ServiceError("shutting_down", "server is draining")
        if len(self._pending) >= self.max_depth:
            METRICS.incr("service.rejected")
            raise ServiceError(
                "queue_full",
                f"queue depth {self.max_depth} reached",
                retry_after_s=self.retry_after_hint(),
            )
        self._pending.append(entry)
        METRICS.gauge("service.queue_depth", len(self._pending))

    async def announce(self) -> None:
        """Wake the dispatcher after :meth:`offer` (split so admission stays
        synchronous while notification awaits the lock)."""
        cond = self._condition()
        async with cond:
            cond.notify_all()

    def retry_after_hint(self) -> float:
        """Seconds until the backlog should have drained enough to retry."""
        backlog_s = len(self._pending) * self._service_rate_s / max(1, self.batch_max)
        return round(min(30.0, max(1.0, backlog_s)), 1)

    def record_service_rate(self, seconds_per_request: float) -> None:
        self._service_rate_s += 0.2 * (seconds_per_request - self._service_rate_s)

    # -- consumer side -------------------------------------------------------

    async def next_batch(self) -> List[PendingRequest]:
        """Block until a batch is ready; empty list means the queue closed.

        The batch is the oldest pending request plus every same-key request
        already queued, capped at ``batch_max``; it waits only while the
        queue is empty.  Expired/abandoned entries are pruned (expired
        ones get a ``deadline_exceeded`` result).
        """
        cond = self._condition()
        async with cond:
            while True:
                self._prune_locked()
                if self._pending:
                    break
                if self._closed:
                    return []
                await cond.wait()
            key = self._pending[0].request.workload_key
            batch: List[PendingRequest] = []
            kept: Deque[PendingRequest] = deque()
            for entry in self._pending:
                if len(batch) < self.batch_max and entry.request.workload_key == key:
                    batch.append(entry)
                else:
                    kept.append(entry)
            self._pending = kept
            METRICS.gauge("service.queue_depth", len(self._pending))
        batch = [e for e in batch if self._still_wanted(e)]
        return batch if batch else await self.next_batch()

    def _prune_locked(self) -> None:
        kept: Deque[PendingRequest] = deque()
        for entry in self._pending:
            if self._still_wanted(entry):
                kept.append(entry)
        if len(kept) != len(self._pending):
            self._pending = kept
            METRICS.gauge("service.queue_depth", len(self._pending))

    @staticmethod
    def _still_wanted(entry: PendingRequest) -> bool:
        """Resolve expired entries; drop abandoned ones.  True = diagnose it."""
        if entry.abandoned:
            return False
        if entry.expired:
            METRICS.incr("service.timeouts")
            entry.future.set_exception(
                ServiceError("deadline_exceeded",
                             "deadline expired while queued")
            )
            return False
        return True

    # -- shutdown ------------------------------------------------------------

    async def close(self) -> None:
        """Stop admitting; wake the dispatcher so it can drain and exit."""
        self._closed = True
        await self.announce()

    @property
    def closed(self) -> bool:
        return self._closed
