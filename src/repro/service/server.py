"""Asyncio HTTP diagnosis server: batching, admission control, drain.

Zero dependencies beyond the stdlib: ``asyncio`` streams (no
``http.server``, which is thread-per-connection and has no backpressure
story) around :mod:`repro.service.framing`, the HTTP/1.1 parser and
renderer the cluster control port shares.  The event loop only parses,
routes and queues; all diagnosis work runs in a thread-pool executor so
a long batch never stalls accepts, health checks or metric scrapes.

Request lifecycle (see docs/architecture.md, "Serving")::

    accept -> parse -> admission (queue bound) -> BatchQueue
           -> idle dispatcher takes the oldest request plus every
              same-workload request already queued (dispatch on idle)
           -> DiagnosisEngine.execute_batch (executor thread, fused kernel)
           -> per-request futures resolve -> HTTP responses

Endpoints:

* ``POST /diagnose`` — one diagnosis request (protocol.py), JSON in/out.
* ``GET /healthz``   — liveness/readiness: 200 ``ok`` or 503 ``draining``.
* ``GET /metrics``   — JSON snapshot: queue depth, batch sizes,
  p50/p95/p99 latency, per-code request counts, cache footprint, process
  health (``uptime_seconds``, ``process_rss_bytes``), plus the full
  :data:`repro.telemetry.METRICS` registry.  Each request's stages are
  observed once, into the registry histogram
  ``service.request_seconds{stage=total|queue_wait|execute}``; the
  ``latency`` section is its :func:`~repro.telemetry.metrics.summary`.
  ``?format=prometheus`` or ``Accept: text/plain`` selects the
  Prometheus text exposition (:mod:`repro.telemetry.promexp`) instead —
  counters, gauges, and every registry histogram as a real
  ``_bucket``/``_sum``/``_count`` histogram.
* ``GET /debug/requests`` — flight-recorder snapshot: the most recent,
  slowest, and most recently failing requests per route/workload, each
  with its queue/batch/kernel timing breakdown (``?limit=N``).
* ``GET /debug/trace/<trace_id>`` — the assembled span tree for one
  trace (request -> batch -> kernel), plus the raw records so a
  cluster supervisor can pool workers' records and re-assemble.
* ``GET /debug/profile?seconds=N&hz=R`` — on-demand sampling-profiler
  burst; returns collapsed stacks as ``text/plain`` (flamegraph.pl input).
  :func:`parse_debug` clamps these three routes' parameters, here and on
  the cluster control port.

Every request runs under a trace context: the client's ``traceparent``
header is honoured when valid, otherwise the server mints ids; the reply
payload echoes ``trace_id`` so clients can fetch the tree afterwards.

Knobs (constructor arguments; the CLI maps env vars onto them):
``REPRO_SERVE_PORT``, ``REPRO_BATCH_MAX``, ``REPRO_QUEUE_DEPTH``,
``REPRO_FLIGHT_SPANS``.

Shutdown: SIGTERM/SIGINT stop the listener, flip ``/healthz`` to
``draining`` (new diagnoses get 503 ``shutting_down``), let queued and
in-flight batches finish (bounded by ``drain_grace_s``), then exit 0.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import json
import math
import os
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote

from ..experiments import cache
from ..telemetry import (
    FLIGHT,
    METRICS,
    PROMETHEUS_CONTENT_TYPE,
    SamplingProfiler,
    assemble_tree,
    log,
    metric_key,
    parse_traceparent,
    render_prometheus,
    span,
)
from ..telemetry.metrics import summary
from . import framing
from .batching import BatchQueue, PendingRequest
from .engine import DiagnosisEngine
from .protocol import DiagnoseReply, DiagnoseRequest, ServiceError

DEFAULT_PORT = 8953

#: Route -> the methods it answers; the control port serves DEBUG_ROUTES.
DEBUG_ROUTES = {"/debug/requests": ("GET",), "/debug/trace/": ("GET",),
                "/debug/profile": ("GET",)}
ROUTES = {"/diagnose": ("POST",), "/healthz": ("GET",), "/metrics": ("GET",),
          "/debug/flightrec": ("GET", "POST"), **DEBUG_ROUTES}

#: Registry histogram every request stage is observed into, labelled
#: ``stage``: whole request, queue wait, and the batch's execution.
REQUEST_SECONDS = "service.request_seconds"
LATENCY_STAGES = ("execute", "queue_wait", "total")


def latency_summary(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """The ``latency`` view of a (possibly fleet-merged) registry
    snapshot: one :func:`~repro.telemetry.metrics.summary` per stage."""
    hists = snapshot.get("histograms", {})
    return {
        stage: summary(
            hists.get(metric_key(REQUEST_SECONDS, {"stage": stage})))
        for stage in LATENCY_STAGES
    }


def parse_debug(path: str, query: str) -> Tuple[str, Dict[str, Any]]:
    """The debug-plane operation a ``/debug/*`` URL names and its
    arguments for :meth:`DiagnosisServer.debug`: ``limit`` clamped to
    [1, 1000], ``seconds`` to [0.05, 30], ``hz`` to at most 1000 (0 keeps
    the profiler's default).  Raises ``invalid_argument`` on bad values
    and ``no_such_route`` on any other path.
    """
    params = {name: values[0] for name, values in parse_qs(query).items()}
    if path.startswith("/debug/trace/"):
        trace_id = unquote(path[len("/debug/trace/"):]).strip().lower()
        if not trace_id:
            raise ServiceError("invalid_argument",
                               "usage: GET /debug/trace/<trace_id>")
        return "trace", {"trace_id": trace_id}
    try:
        if path == "/debug/requests":
            limit = int(params.get("limit", 50))
            return "requests", {"limit": min(max(limit, 1), 1000)}
        if path == "/debug/profile":
            seconds = float(params.get("seconds", 1.0))
            hz = int(params.get("hz", 0))
            if not math.isfinite(seconds):
                raise ValueError(seconds)
            return "profile", {"seconds": min(max(seconds, 0.05), 30.0),
                               "hz": min(max(hz, 0), 1000) or None}
    except ValueError:
        raise ServiceError("invalid_argument",
                           f"{path} parameters must be finite numbers")
    raise ServiceError("no_such_route", f"no route for {path}")


def folded_body(samples: Dict[str, int]) -> Tuple[bytes, str]:
    """Profiler samples as collapsed-stack ``text/plain`` (flamegraph.pl
    input): one ``stack count`` line per stack, sorted by stack."""
    text = "".join(f"{stack} {count}\n"
                   for stack, count in sorted(samples.items()))
    return text.encode("utf-8"), "text/plain; charset=utf-8"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def process_rss_bytes() -> Optional[int]:
    """Resident set size of this process, stdlib only.

    ``/proc/self/statm`` (Linux) gives current residency; the
    ``resource`` fallback reports peak residency (``ru_maxrss`` — KiB on
    Linux, bytes on macOS), which is close enough for a gauge whose job
    is spotting leaks.  None when neither source exists.
    """
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    except (ImportError, OSError, ValueError):  # pragma: no cover - exotic
        return None


async def _discard_input(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
    """Half-close, then drop input until the client's EOF or LINGER_S."""
    async def drain() -> None:
        while await reader.read(65536):
            pass

    with contextlib.suppress(asyncio.TimeoutError, OSError):
        writer.write_eof()
        await asyncio.wait_for(drain(), framing.LINGER_S)


#: Response body: a JSON-able dict, or pre-rendered ``(bytes, content_type)``.
_Body = Union[Dict[str, Any], Tuple[bytes, str]]


class DiagnosisServer:
    """The serving layer; one instance per process."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        engine: Optional[DiagnosisEngine] = None,
        batch_max: Optional[int] = None,
        queue_depth: Optional[int] = None,
        dispatchers: int = 1,
        default_timeout_ms: Optional[float] = 30_000.0,
        drain_grace_s: float = 10.0,
        sock: Optional[socket.socket] = None,
        on_ready: Optional[Callable[["DiagnosisServer"], None]] = None,
        on_drained: Optional[Callable[["DiagnosisServer"], None]] = None,
    ):
        self.host = host
        self.port = DEFAULT_PORT if port is None else port
        #: Pre-bound listen socket (prefork cluster workers inherit one
        #: from the supervisor or bind their own ``SO_REUSEPORT`` copy);
        #: when given, ``host``/``port`` are informational only.
        self.sock = sock
        #: Lifecycle hooks for embedding supervisors: ``on_ready`` fires
        #: once the socket is accepting, ``on_drained`` after a drain
        #: completed (both called on the event-loop thread, never raised
        #: through the server).
        self.on_ready = on_ready
        self.on_drained = on_drained
        self.engine = engine or DiagnosisEngine()
        self.batch_max = batch_max if batch_max is not None else _env_int(
            "REPRO_BATCH_MAX", 32)
        depth = queue_depth if queue_depth is not None else _env_int(
            "REPRO_QUEUE_DEPTH", 256)
        self.queue = BatchQueue(max_depth=depth, batch_max=self.batch_max)
        self.dispatchers = max(1, dispatchers)
        self.default_timeout_ms = default_timeout_ms
        self.drain_grace_s = drain_grace_s
        self.started_at = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher_tasks: List[asyncio.Task] = []
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.dispatchers, thread_name_prefix="repro-serve"
        )
        self._inflight = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._request_counts: Dict[str, int] = {}
        #: One on-demand profiler burst at a time (``/debug/profile``).
        self._profile_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving (returns once the socket is listening).

        With ``sock`` the server adopts the pre-bound socket instead of
        binding ``host:port`` itself — the prefork path, where the
        supervisor owns the bind and workers only accept.
        """
        if self.sock is not None:
            self._server = await asyncio.start_server(
                self._serve_connection, sock=self.sock,
                limit=framing.MAX_HEADER_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port,
                limit=framing.MAX_HEADER_BYTES,
            )
        self.port = self._server.sockets[0].getsockname()[1]
        for _ in range(self.dispatchers):
            self._dispatcher_tasks.append(
                asyncio.ensure_future(self._dispatch_loop())
            )
        log(f"service: listening on http://{self.host}:{self.port} "
            f"(batch_max={self.batch_max}, "
            f"queue_depth={self.queue.max_depth})")
        self._fire_hook(self.on_ready)

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain, then tear everything down."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        log("service: draining (no new requests admitted)")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.queue.close()
        if drain and self._dispatcher_tasks:
            # Dispatchers exit once the closed queue is empty, so waiting on
            # them drains every queued and in-flight batch.
            _, pending = await asyncio.wait(
                self._dispatcher_tasks, timeout=self.drain_grace_s
            )
            if pending:
                log(f"service: drain grace expired with {len(pending)} "
                    "dispatcher(s) still busy")
        for task in self._dispatcher_tasks:
            task.cancel()
        await asyncio.gather(*self._dispatcher_tasks, return_exceptions=True)
        for task in list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._stopped.set()
        log("service: drained and stopped")
        self._fire_hook(self.on_drained)

    def _fire_hook(self, hook: Optional[Callable[["DiagnosisServer"], None]]) -> None:
        if hook is None:
            return
        try:
            hook(self)
        except Exception as exc:  # noqa: BLE001 - hooks must not kill serving
            log(f"service: lifecycle hook raised: {exc!r}")

    @property
    def draining(self) -> bool:
        return self._draining

    # -- dispatcher ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            batch = await self.queue.next_batch()
            if not batch:
                return  # queue closed and empty
            self._inflight += len(batch)
            started = time.monotonic()
            requests = [entry.request for entry in batch]
            traces = [entry.trace for entry in batch]
            try:
                results = await loop.run_in_executor(
                    self._executor,
                    functools.partial(self.engine.execute_batch, requests,
                                      traces=traces),
                )
            except Exception as exc:  # noqa: BLE001 - request-level boundary
                log(f"service: batch execution raised: {exc!r}")
                results = [ServiceError("internal_error", f"batch failed: {exc}")
                           for _ in batch]
            finally:
                self._inflight -= len(batch)
            execute_s = time.monotonic() - started
            self.queue.record_service_rate(execute_s / len(batch))
            METRICS.observe(REQUEST_SECONDS, execute_s,
                            labels={"stage": "execute"})
            METRICS.incr("service.batches")
            METRICS.observe("service.batch_size", len(batch))
            for entry, result in zip(batch, results):
                if entry.future.done():
                    continue  # waiter timed out / disconnected meanwhile
                queue_wait_s = started - entry.enqueued_at
                METRICS.observe(REQUEST_SECONDS, queue_wait_s,
                                labels={"stage": "queue_wait"})
                if isinstance(result, ServiceError):
                    entry.future.set_exception(result)
                else:
                    result.queue_wait_ms = queue_wait_s * 1000
                    result.execute_ms = execute_s * 1000
                    result.batch_size = len(batch)
                    entry.future.set_result(result)

    # -- connection handling -------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServiceError as exc:
                    await self._write_response(
                        writer, exc.status, exc.to_payload(), close=True)
                    await _discard_input(reader, writer)
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break  # clean EOF between requests
                head, body = request
                status, payload, extra = await self._route(head, body)
                keep_alive = head.keep_alive
                await self._write_response(
                    writer, status, payload, extra_headers=extra,
                    close=not keep_alive)
                if not keep_alive:
                    break
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - already-gone peer
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[framing.RequestHead, bytes]]:
        """One request off the stream; None on a clean EOF before it.
        Framing errors raise ``malformed_payload``."""
        raw = b""
        while len(raw) <= framing.MAX_HEADER_BYTES:
            try:
                line = await reader.readline()
            except ValueError:  # one line past the stream's limit
                raise framing.malformed("headers too large")
            if not line:
                if raw:
                    raise framing.malformed("truncated headers")
                return None
            raw += line
            if line in (b"\r\n", b"\n"):
                break
        head = framing.parse_head(raw)
        assert head is not None  # the loop stopped at the blank line
        body = (await reader.readexactly(head.content_length)
                if head.content_length else b"")
        return head, body

    async def _write_response(
        self, writer: asyncio.StreamWriter, status: int, payload: _Body,
        extra_headers: Optional[Dict[str, str]] = None, close: bool = False,
    ) -> None:
        if isinstance(payload, tuple):
            body, content_type = payload
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        writer.write(framing.render_response(
            status, body, content_type, close, extra_headers))
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _route(
        self, head: framing.RequestHead, body: bytes,
    ) -> Tuple[int, _Body, Optional[Dict[str, str]]]:
        try:
            route = framing.match_route(ROUTES, head.method, head.path)
            if route == "/diagnose":
                reply = await self._handle_diagnose(body, head.headers)
                self._count("ok")
                return 200, reply.to_payload(), None
            if route == "/healthz":
                payload = self._health_payload()
                return (503 if self._draining else 200), payload, None
            if route == "/metrics":
                if framing.wants_prometheus(head.query, head.headers):
                    return 200, self._prometheus_body(), None
                return 200, self._metrics_payload(), None
            if route == "/debug/flightrec":
                return 200, self._debug_flightrec_payload(
                    body if head.method == "POST" else None), None
            op, args = parse_debug(head.path, head.query)
            payload = await self.debug(op, args)
            if op == "profile":
                return 200, folded_body(payload["folded"]), None
            return 200, payload, None
        except ServiceError as exc:
            self._count(exc.code)
            extra = None
            if exc.retry_after_s is not None:
                extra = {"Retry-After": str(max(1, int(round(exc.retry_after_s))))}
            return exc.status, exc.to_payload(), extra
        except Exception as exc:  # noqa: BLE001 - request-level boundary
            log(f"service: handler crashed: {exc!r}")
            self._count("internal_error")
            error = ServiceError("internal_error", "unexpected server error")
            return error.status, error.to_payload(), None

    #: Error code -> ``outcome`` label.  Load shedding (admission control,
    #: deadlines) is not a server failure; the taxonomy keeps rejected and
    #: timed-out requests distinguishable from errors on the boards.
    _OUTCOMES = {
        "queue_full": "rejected",
        "shutting_down": "rejected",
        "deadline_exceeded": "timeout",
    }

    def _count(self, code: str) -> None:
        self._request_counts[code] = self._request_counts.get(code, 0) + 1
        outcome = "ok" if code == "ok" else self._OUTCOMES.get(code, "error")
        METRICS.incr("service.requests",
                     labels={"code": code, "outcome": outcome})

    async def _handle_diagnose(
        self, body: bytes, headers: Optional[Dict[str, str]] = None,
    ) -> DiagnoseReply:
        arrived = time.monotonic()
        parent = parse_traceparent((headers or {}).get("traceparent"))
        with span("service.request", kind="request", parent=parent,
                  key="/diagnose") as request_span:
            try:
                try:
                    payload = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    raise ServiceError("malformed_payload",
                                       "request body is not valid JSON")
                request = DiagnoseRequest.from_payload(payload)
                request_span.set_attribute(
                    "key", f"{request.circuit}/{request.scheme}")
                if self._draining:
                    raise ServiceError("shutting_down", "server is draining")
                timeout_ms = request.timeout_ms or self.default_timeout_ms
                deadline = arrived + timeout_ms / 1000.0 if timeout_ms else None
                entry = PendingRequest(
                    request=request,
                    future=asyncio.get_event_loop().create_future(),
                    enqueued_at=arrived,
                    deadline=deadline,
                    trace=(request_span.trace_id, request_span.span_id),
                )
                self.queue.offer(entry)  # raises queue_full / shutting_down
                await self.queue.announce()
                try:
                    if deadline is not None:
                        reply = await asyncio.wait_for(
                            entry.future, timeout=deadline - time.monotonic())
                    else:
                        reply = await entry.future
                except asyncio.TimeoutError:
                    METRICS.incr("service.timeouts")
                    raise ServiceError("deadline_exceeded",
                                       f"request exceeded {timeout_ms:.0f} ms")
                finally:
                    METRICS.observe(REQUEST_SECONDS,
                                    time.monotonic() - arrived,
                                    labels={"stage": "total"})
                reply.trace_id = request_span.trace_id
                request_span.set_attribute("queue_wait_ms", reply.queue_wait_ms)
                request_span.set_attribute("execute_ms", reply.execute_ms)
                request_span.set_attribute("batch_size", reply.batch_size)
                return reply
            except ServiceError as exc:
                request_span.set_attribute("status", exc.code)
                raise

    # -- introspection -------------------------------------------------------

    def _observe_process_gauges(self) -> Tuple[float, Optional[int]]:
        """Refresh the process-health gauges both snapshots share."""
        uptime_s = time.monotonic() - self.started_at
        rss = process_rss_bytes()
        METRICS.gauge("service.uptime_seconds", round(uptime_s, 3))
        if rss is not None:
            METRICS.gauge("process.rss_bytes", rss)
        METRICS.gauge("service.queue_depth", self.queue.depth)
        METRICS.gauge("service.inflight", self._inflight)
        return uptime_s, rss

    def _prometheus_body(self) -> Tuple[bytes, str]:
        self._observe_process_gauges()
        text = render_prometheus(METRICS.snapshot())
        return text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "queue_depth": self.queue.depth,
            "inflight": self._inflight,
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        cache_stats = cache.stats()
        uptime_s, rss = self._observe_process_gauges()
        registry = METRICS.snapshot()
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(uptime_s, 3),
            "uptime_seconds": round(uptime_s, 3),
            "process_rss_bytes": rss,
            "queue": {
                "depth": self.queue.depth,
                "max_depth": self.queue.max_depth,
                "inflight": self._inflight,
            },
            "batching": {
                "batch_max": self.batch_max,
                "batches": int(METRICS.counter("service.batches")),
                "batch_size": registry["histograms"].get("service.batch_size"),
            },
            "latency": latency_summary(registry),
            "requests": dict(sorted(self._request_counts.items())),
            "rejected": int(METRICS.counter("service.rejected")),
            "timeouts": int(METRICS.counter("service.timeouts")),
            "cache": {
                "entries": cache_stats.entries,
                "bytes": cache_stats.bytes,
                "evictions": cache_stats.evictions,
            },
            "registry": registry,
        }

    # -- debug plane ---------------------------------------------------------

    async def debug(self, op: str, args: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one :func:`parse_debug` operation (a ``/debug`` route
        or a cluster worker's ``debug`` frame): the flight-recorder
        snapshot, a trace's span tree plus its raw records, or a profiler
        burst's folded stacks."""
        if op == "requests":
            snap = FLIGHT.snapshot(limit=args["limit"])
            snap["pid"] = os.getpid()
            snap["draining"] = self._draining
            return snap
        if op == "trace":
            records = FLIGHT.records_for_trace(args["trace_id"])
            # Raw records ride along so a cluster supervisor can pool
            # every worker's records and re-assemble one fleet-wide tree.
            return {**assemble_tree(records, args["trace_id"]),
                    "records": records}
        if op == "profile":
            # The *default* executor, never self._executor: a burst must
            # not occupy a dispatcher thread for `seconds` of batch
            # capacity.
            samples = await asyncio.get_event_loop().run_in_executor(
                None, self._profile_burst, args["seconds"], args["hz"])
            return {"folded": samples}
        raise ServiceError("no_such_route", f"no debug operation {op!r}")

    def _debug_flightrec_payload(
        self, body: Optional[bytes],
    ) -> Dict[str, Any]:
        """GET: recorder state.  POST ``{"capacity": N}``: live resize.

        ``capacity: 0`` switches recording off without a restart (and a
        later POST re-enables it) — what an operator reaches for when a
        ring of span dicts is unwelcome on a squeezed heap, and what the
        bench overhead stage uses to A/B one process against itself.
        """
        if body is not None:
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
                capacity = int(payload["capacity"])
            except (UnicodeDecodeError, json.JSONDecodeError,
                    KeyError, TypeError, ValueError):
                raise ServiceError(
                    "invalid_argument",
                    'usage: POST /debug/flightrec {"capacity": <int >= 0>}')
            if capacity < 0:
                raise ServiceError("invalid_argument",
                                   "capacity must be >= 0")
            FLIGHT.resize(capacity)
        return {
            "capacity": FLIGHT.capacity,
            "enabled": FLIGHT.enabled,
            "recorded": FLIGHT.recorded,
            "pid": os.getpid(),
        }

    def _profile_burst(self, seconds: float,
                       hz: Optional[int]) -> Dict[str, int]:
        """Run a private sampling-profiler burst; samples per stack.

        Private instance (the global :data:`PROFILER` may be serving the
        pipeline); the lock serializes concurrent bursts — the second
        caller gets 429 with a Retry-After instead of doubled samplers.
        """
        if not self._profile_lock.acquire(blocking=False):
            raise ServiceError("queue_full",
                               "another profile burst is running",
                               retry_after_s=seconds)
        try:
            profiler = SamplingProfiler(hz=hz)
            profiler.start()
            try:
                time.sleep(seconds)
            finally:
                profiler.stop()
            return dict(profiler.data.samples)
        finally:
            self._profile_lock.release()


class ThreadedServer:
    """Run a :class:`DiagnosisServer` on a background thread (tests, embedding).

    The server gets its own event loop; :meth:`start` blocks until the
    socket is listening and returns the bound port (pass ``port=0`` for an
    ephemeral one).  :meth:`stop` drains and joins.
    """

    def __init__(self, **kwargs: Any):
        self._kwargs = kwargs
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self.server: Optional[DiagnosisServer] = None

    def start(self, timeout: float = 30.0) -> int:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-thread")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error!r}")
        assert self.server is not None
        return self.server.port

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self.server = DiagnosisServer(**self._kwargs)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_until_complete(self.server.serve_forever())
        finally:
            self._loop.close()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if self._loop is None or self.server is None or not self._thread:
            return
        if not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(drain=drain), self._loop)
            try:
                future.result(timeout)
            except Exception:  # noqa: BLE001 - loop may already be gone
                pass
        self._thread.join(timeout)


async def _serve(args: argparse.Namespace) -> int:
    engine = DiagnosisEngine(max_cache_bytes=args.max_cache_bytes)
    server = DiagnosisServer(
        host=args.host,
        port=args.port,
        engine=engine,
        batch_max=args.batch_max,
        queue_depth=args.queue_depth,
        dispatchers=args.dispatchers,
        drain_grace_s=args.drain_grace_s,
    )
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            signum, lambda: asyncio.ensure_future(server.shutdown(drain=True))
        )
    await server.start()
    print(f"serving on http://{server.host}:{server.port}", file=sys.stderr,
          flush=True)
    if not args.no_disk_warm:
        # Pull everything a previous process compiled out of the
        # REPRO_DISK_CACHE tier before traffic lands (no-op when unset).
        await loop.run_in_executor(None, engine.warm_from_disk)
    for circuit in args.prewarm or []:
        request = DiagnoseRequest.from_payload(
            {"circuit": circuit, "fault_index": 0})
        await loop.run_in_executor(None, engine.prewarm, request)
        log(f"service: prewarmed {circuit}")
    await server.serve_forever()
    return 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro serve`` / ``repro-serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived batching diagnosis server "
        "(POST /diagnose, GET /healthz, GET /metrics).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int,
                        default=_env_int("REPRO_SERVE_PORT", DEFAULT_PORT),
                        help="0 = ephemeral (default REPRO_SERVE_PORT or "
                        f"{DEFAULT_PORT})")
    parser.add_argument("--batch-max", type=int, default=None,
                        help="max requests coalesced per batch "
                        "(default REPRO_BATCH_MAX or 32)")
    parser.add_argument("--queue-depth", type=int, default=None,
                        help="admission-control bound on queued requests "
                        "(default REPRO_QUEUE_DEPTH or 256)")
    parser.add_argument("--dispatchers", type=int, default=1,
                        help="concurrent batch executors (default 1)")
    parser.add_argument("--workers", type=int,
                        default=_env_int("REPRO_CLUSTER_WORKERS", 1),
                        help="server processes to run; >1 starts the prefork "
                        "cluster supervisor (default REPRO_CLUSTER_WORKERS "
                        "or 1)")
    parser.add_argument("--max-cache-bytes", type=int, default=None,
                        help="LRU budget for resident compiled workloads")
    parser.add_argument("--drain-grace-s", type=float, default=10.0,
                        help="max seconds to drain on SIGTERM (default 10)")
    parser.add_argument("--prewarm", action="append", metavar="CIRCUIT",
                        help="compile this circuit's default workload at "
                        "startup (repeatable)")
    parser.add_argument("--no-disk-warm", action="store_true",
                        help="skip loading the REPRO_DISK_CACHE tier into "
                        "memory at startup")
    cluster = parser.add_argument_group(
        "cluster", "options that only apply with --workers > 1")
    cluster.add_argument("--control-port", type=int,
                         default=_env_int("REPRO_CLUSTER_CONTROL_PORT", 0) or None,
                         help="supervisor /healthz + aggregated /metrics port "
                         "(default REPRO_CLUSTER_CONTROL_PORT, or service "
                         "port + 1)")
    cluster.add_argument("--sharing", choices=("auto", "reuseport", "inherit"),
                         default="auto",
                         help="listen-socket sharing: SO_REUSEPORT per worker "
                         "or one inherited FD (default auto)")
    cluster.add_argument("--heartbeat-s", type=float, default=1.0,
                         help="worker heartbeat interval (default 1.0)")
    args = parser.parse_args(argv)
    if args.workers > 1:
        return _serve_cluster(args)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


def _serve_cluster(args: argparse.Namespace) -> int:
    """Dispatch ``repro serve --workers N`` to the prefork supervisor."""
    from ..cluster.supervisor import run_cluster

    return run_cluster(
        host=args.host,
        port=args.port,
        workers=args.workers,
        control_port=args.control_port,
        sharing=args.sharing,
        heartbeat_s=args.heartbeat_s,
        drain_grace_s=max(args.drain_grace_s + 5.0, 15.0),
        server_kwargs=dict(
            batch_max=args.batch_max,
            queue_depth=args.queue_depth,
            dispatchers=args.dispatchers,
            drain_grace_s=args.drain_grace_s,
        ),
        engine_kwargs=dict(max_cache_bytes=args.max_cache_bytes),
        prewarm=tuple(args.prewarm or ()),
        disk_warm=not args.no_disk_warm,
    )
