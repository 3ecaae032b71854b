"""Prefork cluster supervisor: health-checked multi-process serving.

The PR 3 service is one asyncio process — one CPU-bound batch loop in
front of multi-core kernels.  This module runs **N** of those processes
behind a single listen port and supervises them:

* **Socket sharing** — the supervisor resolves and claims the port once;
  workers either bind their own ``SO_REUSEPORT`` socket to it (Linux: the
  kernel load-balances accepts across workers) or inherit the
  supervisor's bound FD through ``fork`` (the portable fallback).
* **Liveness** — each worker heartbeats over a per-worker control
  socketpair (:mod:`repro.cluster.control`).  A worker that stops
  beating, closes its channel or dies — ``kill -9`` included — is reaped
  and respawned with exponential backoff; a crash-looping slot (repeated
  deaths under ``min_uptime_s``) trips a circuit breaker and stays down
  instead of burning CPU on futile respawns.
* **Graceful operations** — SIGTERM fans drain-then-exit out to every
  worker and exits 0 once all of them drained; SIGHUP performs a rolling
  restart, one slot at a time, waiting for the replacement's ``ready``
  before touching the next, so the fleet never drops below N-1 live
  workers.
* **Fleet observability** — heartbeats carry each worker's metrics
  registry snapshot; the supervisor serves an aggregated ``GET /metrics``
  on its control port (JSON, or Prometheus text, negotiated exactly as
  the server does) with counters summed, histograms — request latency
  included — merged bucket-wise by :func:`~repro.telemetry.merge_snapshots`
  and per-worker ``up``/``restarts`` gauges, plus ``GET /healthz``
  reflecting quorum.  Requests go through the server's own
  :mod:`~repro.service.framing`, so errors are the server's
  ``ServiceError`` payloads, plus 503 ``no_live_workers``.
* **Debug plane proxy** — ``GET /debug/requests``, ``/debug/trace/<id>``
  and ``/debug/profile`` on the control port fan out as ``debug`` frames
  carrying :func:`~repro.service.server.parse_debug`'s ``(op, args)`` to
  every READY worker; the HTTP connection parks until each worker's
  ``debug_reply`` lands (or a deadline passes), then the bodies merge:
  flight snapshots keyed by slot, trace records pooled and re-assembled
  into one fleet-wide span tree, folded profiler stacks summed.

Entry points: ``repro serve --workers N`` and ``repro-cluster`` (see
:func:`repro.service.server.serve_main`).  The supervisor itself is a
single-threaded ``selectors`` loop — it never runs diagnosis work, so
forking stays cheap and safe.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import time
import traceback
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..service import framing
from ..service.protocol import ServiceError
from ..service.server import (DEBUG_ROUTES, folded_body, latency_summary,
                              parse_debug)
from ..telemetry import (
    METRICS,
    PROMETHEUS_CONTENT_TYPE,
    assemble_tree,
    log,
    merge_snapshots,
    render_prometheus,
)
from .control import ControlChannelError, FrameDecoder, encode_frame

#: Control-port route -> the methods it answers.
CONTROL_ROUTES = {"/healthz": ("GET",), "/metrics": ("GET",), **DEBUG_ROUTES}

#: Worker slot lifecycle states.
STARTING, READY, STOPPING, DOWN, BROKEN, EXITED = (
    "starting", "ready", "stopping", "down", "broken", "exited",
)


def default_sharing() -> str:
    """``reuseport`` where the platform supports it, else ``inherit``."""
    return "reuseport" if hasattr(socket, "SO_REUSEPORT") else "inherit"


class WorkerSlot:
    """Supervisor-side state for one worker position in the fleet."""

    def __init__(self, index: int):
        self.index = index
        self.pid: Optional[int] = None
        self.sock: Optional[socket.socket] = None
        self.decoder = FrameDecoder()
        self.state = DOWN
        self.started_at = 0.0
        self.last_seen = 0.0
        self.port: Optional[int] = None
        self.restarts = 0
        self.consecutive_fast_exits = 0
        self.respawn_at = 0.0
        self.exit_code: Optional[int] = None
        self.draining = False
        self.metrics: Dict[str, Any] = {}
        self.requests: Dict[str, int] = {}
        #: Counters and histograms of every earlier worker in this slot,
        #: folded in from each one's last heartbeat when it exited.
        self.retired_metrics: Dict[str, Any] = {}
        self.retired_requests: Counter = Counter()

    @property
    def live(self) -> bool:
        return self.state in (STARTING, READY, STOPPING) and self.pid is not None

    def describe(self, now: float) -> Dict[str, Any]:
        return {
            "slot": self.index,
            "pid": self.pid,
            "state": self.state,
            "port": self.port,
            "restarts": self.restarts,
            "uptime_s": round(now - self.started_at, 3) if self.live else 0.0,
            "heartbeat_age_s": (
                round(now - self.last_seen, 3) if self.live else None
            ),
            "draining": self.draining,
            #: Cumulative request count of the slot, earlier workers
            #: included — lets ``repro top`` derive per-worker rps from
            #: poll deltas that never go negative across a respawn.
            "requests_total": int(sum(self.requests.values())
                                  + sum(self.retired_requests.values())),
        }

    def retire(self) -> None:
        """Fold the exited worker's last heartbeat into the slot's retired
        totals, so fleet counters never go backwards across a respawn.
        Its gauges are dropped: they describe a process that is gone."""
        if self.metrics:
            last = {key: self.metrics.get(key, {})
                    for key in ("counters", "histograms")}
            self.retired_metrics = merge_snapshots(
                {"last": last}, base=self.retired_metrics)
        self.retired_requests.update(
            {code: int(count) for code, count in self.requests.items()})
        self.metrics = {}
        self.requests = {}


class _HttpConn:
    """One in-flight control-port HTTP exchange (read → respond → close)."""

    __slots__ = ("sock", "inbuf", "outbuf", "answered", "opened_at",
                 "deadline")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = b""
        #: The head is answered (or parked for a fan-out); later input is
        #: dropped until the client's EOF or the deadline.
        self.answered = False
        self.opened_at = time.monotonic()
        #: Sweep cutoff; a parked ``/debug`` fan-out pushes this out past
        #: the default 10s (a profile burst legitimately takes longer).
        self.deadline = self.opened_at + 10.0


class _DebugFanout:
    """One parked ``/debug/*`` request awaiting worker ``debug_reply``s."""

    __slots__ = ("op", "conn", "waiting", "replies", "deadline")

    def __init__(self, op: str, conn: _HttpConn, deadline: float):
        self.op = op
        self.conn = conn
        #: Slot indices still owing a reply.
        self.waiting: set = set()
        #: slot index -> reply body.
        self.replies: Dict[int, Any] = {}
        self.deadline = deadline


class ClusterSupervisor:
    """Prefork supervisor for N :class:`DiagnosisServer` worker processes."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        control_port: Optional[int] = None,
        server_kwargs: Optional[Dict[str, Any]] = None,
        engine_kwargs: Optional[Dict[str, Any]] = None,
        prewarm: Tuple[str, ...] = (),
        disk_warm: bool = True,
        heartbeat_s: float = 1.0,
        liveness_factor: float = 5.0,
        start_timeout_s: float = 120.0,
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        min_uptime_s: float = 5.0,
        breaker_threshold: int = 5,
        drain_grace_s: float = 15.0,
        sharing: str = "auto",
        quorum: Optional[int] = None,
        worker_entry: Optional[Callable[[int, socket.socket], int]] = None,
    ):
        if workers < 1:
            raise ValueError("a cluster needs at least one worker")
        self.host = host
        self.port = port
        self.num_workers = workers
        self.control_port = control_port
        self.server_kwargs = dict(server_kwargs or {})
        self.engine_kwargs = dict(engine_kwargs or {})
        self.prewarm = tuple(prewarm or ())
        self.disk_warm = disk_warm
        self.heartbeat_s = heartbeat_s
        self.liveness_factor = liveness_factor
        self.start_timeout_s = start_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.min_uptime_s = min_uptime_s
        self.breaker_threshold = breaker_threshold
        self.drain_grace_s = drain_grace_s
        self.sharing = default_sharing() if sharing == "auto" else sharing
        if self.sharing not in ("reuseport", "inherit"):
            raise ValueError(f"unknown sharing mode {sharing!r}")
        if self.sharing == "reuseport" and not hasattr(socket, "SO_REUSEPORT"):
            self.sharing = "inherit"
        #: Healthy = at least this many READY workers (default: half the
        #: fleet rounded up, so a rolling restart never flips /healthz).
        self.quorum = quorum if quorum else max(1, (workers + 1) // 2)
        self._worker_entry = worker_entry or self._default_worker_entry
        self.started_at = time.monotonic()
        self.slots = [WorkerSlot(i) for i in range(workers)]
        self._listen_sock: Optional[socket.socket] = None
        self._http_sock: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._conns: Dict[socket.socket, _HttpConn] = {}
        self._debug_seq = 0
        self._debug_pending: Dict[int, _DebugFanout] = {}
        self._draining = False
        self._drain_deadline = 0.0
        self._drain_kills = 0
        self._rolling: List[int] = []
        self._rolling_active: Optional[int] = None
        self._done = False
        self._exit_code = 0
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind sockets and spawn the initial fleet."""
        self._bind_listen()
        self._bind_control()
        self._selector = selectors.DefaultSelector()
        assert self._http_sock is not None
        self._selector.register(self._http_sock, selectors.EVENT_READ,
                                ("accept", None))
        for slot in self.slots:
            self._spawn(slot)
        self._started = True
        log(f"cluster: supervising {self.num_workers} workers on "
            f"http://{self.host}:{self.port} (sharing={self.sharing}, "
            f"control http://{self.host}:{self.control_port}, "
            f"quorum={self.quorum})")

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → drain, SIGHUP → rolling restart (main thread
        only — tests drive :meth:`request_drain` & co. directly)."""
        signal.signal(signal.SIGTERM, lambda *_: self.request_drain())
        signal.signal(signal.SIGINT, lambda *_: self.request_drain())
        signal.signal(signal.SIGHUP, lambda *_: self.request_rolling_restart())

    def run(self) -> int:
        """Supervision loop; returns the process exit code."""
        if not self._started:
            self.start()
        assert self._selector is not None
        try:
            while not self._done:
                events = self._selector.select(timeout=0.1)
                for key, _mask in events:
                    kind, payload = key.data
                    if kind == "worker":
                        self._on_worker_readable(payload)
                    elif kind == "accept":
                        self._accept_http()
                    elif kind == "http":
                        self._on_http_event(key.fileobj)
                self._tick(time.monotonic())
        finally:
            self._cleanup()
        return self._exit_code

    def request_drain(self) -> None:
        """Fan SIGTERM drain-then-exit out to every worker (idempotent)."""
        if self._draining:
            return
        self._draining = True
        self._drain_deadline = time.monotonic() + self.drain_grace_s
        self._rolling = []
        self._rolling_active = None
        log("cluster: draining all workers")
        for slot in self.slots:
            if slot.live and slot.pid:
                self._signal(slot, signal.SIGTERM)
            elif not slot.live:
                slot.state = EXITED if slot.state != BROKEN else BROKEN

    def request_rolling_restart(self) -> None:
        """Restart every worker one at a time, never dropping below N-1."""
        if self._draining:
            return
        pending = [s.index for s in self.slots if s.index not in self._rolling]
        self._rolling.extend(pending)
        log(f"cluster: rolling restart queued for slots {self._rolling}")

    # -- socket setup --------------------------------------------------------

    def _bind_listen(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if self.sharing == "reuseport":
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self.port))
            self.port = sock.getsockname()[1]
            if self.sharing == "inherit":
                # The one bound+listening socket every worker inherits.
                sock.listen(256)
                sock.set_inheritable(True)
            # reuseport: the supervisor's socket only claims/resolves the
            # port; it never listens, so the kernel balances connections
            # across the workers' own listening sockets.
        except BaseException:
            sock.close()
            raise
        self._listen_sock = sock

    def _bind_control(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        wanted = self.control_port
        if wanted is None:
            wanted = self.port + 1 if self.port else 0
        try:
            sock.bind((self.host, wanted))
        except OSError:
            log(f"cluster: control port {wanted} unavailable; "
                "falling back to an ephemeral one")
            sock.bind((self.host, 0))
        sock.listen(16)
        sock.setblocking(False)
        self.control_port = sock.getsockname()[1]
        self._http_sock = sock

    # -- spawning ------------------------------------------------------------

    def _default_worker_entry(self, index: int, control_sock: socket.socket) -> int:
        from .worker import worker_main

        return worker_main(
            index, control_sock,
            host=self.host, port=self.port, sharing=self.sharing,
            listen_sock=self._listen_sock if self.sharing == "inherit" else None,
            server_kwargs=self.server_kwargs,
            engine_kwargs=self.engine_kwargs,
            heartbeat_s=self.heartbeat_s,
            prewarm=self.prewarm,
            disk_warm=self.disk_warm,
        )

    def _spawn(self, slot: WorkerSlot) -> None:
        sup_sock, child_sock = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            # Child: shed every supervisor-side FD, then become a worker.
            code = 70
            try:
                sup_sock.close()
                self._close_fds_in_child()
                code = self._worker_entry(slot.index, child_sock)
            except BaseException:  # noqa: BLE001 - child must never unwind
                traceback.print_exc()
                code = 70
            finally:
                os._exit(code if isinstance(code, int) else 0)
        child_sock.close()
        sup_sock.setblocking(False)
        slot.pid = pid
        slot.sock = sup_sock
        slot.decoder = FrameDecoder()
        slot.state = STARTING
        slot.started_at = slot.last_seen = time.monotonic()
        slot.exit_code = None
        slot.draining = False
        assert self._selector is not None
        self._selector.register(sup_sock, selectors.EVENT_READ,
                                ("worker", slot))
        METRICS.incr("cluster.spawns")
        log(f"cluster: spawned worker slot={slot.index} pid={pid}")

    def _close_fds_in_child(self) -> None:
        if self._selector is not None:
            self._selector.close()
        if self._http_sock is not None:
            self._http_sock.close()
        for conn in list(self._conns):
            conn.close()
        for other in self.slots:
            if other.sock is not None:
                other.sock.close()
        if self.sharing == "reuseport" and self._listen_sock is not None:
            self._listen_sock.close()

    # -- worker messages -----------------------------------------------------

    def _on_worker_readable(self, slot: WorkerSlot) -> None:
        assert slot.sock is not None
        try:
            data = slot.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            # EOF: the worker died or closed its end; reaping handles the
            # respawn — just stop watching the socket.
            self._unregister(slot)
            return
        try:
            messages = slot.decoder.feed(data)
        except ControlChannelError as exc:
            log(f"cluster: worker slot={slot.index} control channel "
                f"corrupt ({exc}); killing")
            self._signal(slot, signal.SIGKILL)
            self._unregister(slot)
            return
        now = time.monotonic()
        slot.last_seen = now
        for message in messages:
            self._handle_message(slot, message, now)

    def _handle_message(self, slot: WorkerSlot, message: Dict[str, Any],
                        now: float) -> None:
        kind = message.get("type")
        if kind == "ready":
            slot.state = READY
            slot.port = message.get("port")
            if self._rolling_active == slot.index:
                self._rolling_active = None
                log(f"cluster: rolling restart of slot {slot.index} complete")
        elif kind == "heartbeat":
            METRICS.incr("cluster.heartbeats")
            slot.draining = bool(message.get("draining"))
            metrics = message.get("metrics")
            if isinstance(metrics, dict):
                slot.metrics = metrics
            requests = message.get("requests")
            if isinstance(requests, dict):
                slot.requests = requests
            if slot.state == STARTING:
                # Heartbeats imply liveness even if 'ready' got lost.
                slot.state = READY
        elif kind == "drained":
            slot.draining = True
        elif kind == "debug_reply":
            self._on_debug_reply(slot, message)

    def _unregister(self, slot: WorkerSlot) -> None:
        if slot.sock is None:
            return
        try:
            assert self._selector is not None
            self._selector.unregister(slot.sock)
        except (KeyError, ValueError):
            pass
        try:
            slot.sock.close()
        finally:
            slot.sock = None

    # -- periodic work -------------------------------------------------------

    def _tick(self, now: float) -> None:
        self._reap(now)
        self._check_liveness(now)
        self._respawn_due(now)
        self._advance_rolling(now)
        self._expire_fanouts(now)
        self._sweep_http(now)
        if self._draining:
            self._advance_drain(now)
        elif all(slot.state == BROKEN for slot in self.slots):
            log("cluster: every worker slot is broken (crash-loop circuit "
                "breaker); giving up")
            self._exit_code = 1
            self._done = True

    def _reap(self, now: float) -> None:
        for slot in self.slots:
            if slot.pid is None:
                continue
            try:
                pid, status = os.waitpid(slot.pid, os.WNOHANG)
            except ChildProcessError:
                pid, status = slot.pid, 0
            if pid == 0:
                continue
            exit_code = (os.waitstatus_to_exitcode(status)
                         if hasattr(os, "waitstatus_to_exitcode")
                         else (status >> 8))
            self._on_worker_exit(slot, exit_code, now)

    def _on_worker_exit(self, slot: WorkerSlot, exit_code: int,
                        now: float) -> None:
        uptime = now - slot.started_at
        self._unregister(slot)
        slot.retire()
        slot.pid = None
        slot.exit_code = exit_code
        log(f"cluster: worker slot={slot.index} exited code={exit_code} "
            f"after {uptime:.1f}s")
        METRICS.incr("cluster.worker_exits",
                     labels={"clean": int(exit_code == 0)})
        if self._draining:
            slot.state = EXITED
            return
        if self._rolling_active == slot.index and slot.state == STOPPING:
            # Planned stop inside a rolling restart: replace immediately.
            slot.restarts += 1
            self._spawn(slot)
            return
        # Unplanned death (crash, kill -9, liveness kill): backoff respawn.
        slot.restarts += 1
        METRICS.incr("cluster.respawns")
        fast = uptime < self.min_uptime_s
        slot.consecutive_fast_exits = (
            slot.consecutive_fast_exits + 1 if fast else 0
        )
        if slot.consecutive_fast_exits >= self.breaker_threshold:
            slot.state = BROKEN
            log(f"cluster: slot {slot.index} crash-looping "
                f"({slot.consecutive_fast_exits} fast exits); circuit "
                "breaker open — not respawning")
            return
        delay = 0.0
        if fast:
            delay = min(
                self.backoff_cap_s,
                self.backoff_base_s * (2 ** (slot.consecutive_fast_exits - 1)),
            )
        slot.state = DOWN
        slot.respawn_at = now + delay
        if delay:
            log(f"cluster: respawning slot {slot.index} in {delay:.1f}s "
                f"(fast exit #{slot.consecutive_fast_exits})")

    def _check_liveness(self, now: float) -> None:
        timeout = self.heartbeat_s * self.liveness_factor
        for slot in self.slots:
            if slot.pid is None:
                continue
            if slot.state == READY and now - slot.last_seen > timeout:
                log(f"cluster: worker slot={slot.index} missed heartbeats "
                    f"for {now - slot.last_seen:.1f}s; killing")
                METRICS.incr("cluster.liveness_kills")
                self._signal(slot, signal.SIGKILL)
            elif (slot.state == STARTING
                  and now - slot.started_at > self.start_timeout_s):
                log(f"cluster: worker slot={slot.index} failed to become "
                    f"ready within {self.start_timeout_s:.0f}s; killing")
                self._signal(slot, signal.SIGKILL)

    def _respawn_due(self, now: float) -> None:
        if self._draining:
            return
        for slot in self.slots:
            if slot.state == DOWN and slot.pid is None and now >= slot.respawn_at:
                self._spawn(slot)

    def _advance_rolling(self, now: float) -> None:
        if self._draining or self._rolling_active is not None or not self._rolling:
            return
        index = self._rolling.pop(0)
        slot = self.slots[index]
        if slot.state != READY or slot.pid is None:
            # Dead/broken slots restart through the ordinary respawn path.
            return
        self._rolling_active = index
        slot.state = STOPPING
        log(f"cluster: rolling restart — draining slot {index}")
        self._signal(slot, signal.SIGTERM)

    def _advance_drain(self, now: float) -> None:
        remaining = [slot for slot in self.slots if slot.pid is not None]
        if not remaining:
            clean = all(
                slot.exit_code in (0, None) for slot in self.slots
            ) and not self._drain_kills
            self._exit_code = 0 if clean else 1
            self._done = True
            return
        if now > self._drain_deadline:
            for slot in remaining:
                log(f"cluster: drain grace expired; killing slot {slot.index}")
                self._signal(slot, signal.SIGKILL)
                self._drain_kills += 1
            self._drain_deadline = now + self.drain_grace_s  # await reaps

    def _signal(self, slot: WorkerSlot, signum: int) -> None:
        if slot.pid is None:
            return
        try:
            os.kill(slot.pid, signum)
        except ProcessLookupError:
            pass

    def _cleanup(self) -> None:
        for slot in self.slots:
            if slot.pid is not None:
                self._signal(slot, signal.SIGKILL)
                try:
                    os.waitpid(slot.pid, 0)
                except (ChildProcessError, OSError):
                    pass
                slot.pid = None
            self._unregister(slot)
        for conn in list(self._conns):
            self._close_conn(conn)
        if self._http_sock is not None:
            self._http_sock.close()
        if self._listen_sock is not None:
            self._listen_sock.close()
        if self._selector is not None:
            self._selector.close()

    # -- control-port HTTP ---------------------------------------------------

    def _accept_http(self) -> None:
        assert self._http_sock is not None
        while True:
            try:
                conn, _addr = self._http_sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            conn.setblocking(False)
            state = _HttpConn(conn)
            self._conns[conn] = state
            assert self._selector is not None
            self._selector.register(conn, selectors.EVENT_READ,
                                    ("http", None))

    def _on_http_event(self, sock: socket.socket) -> None:
        state = self._conns.get(sock)
        if state is None:
            return
        if state.outbuf:
            self._flush_conn(state)
            return
        try:
            data = sock.recv(16384)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(sock)
            return
        if not data:
            self._close_conn(sock)
            return
        if state.answered:
            return
        state.inbuf.extend(data)
        response = self._respond(state)
        if response is not None:
            self._complete_conn(state, response)

    def _complete_conn(self, state: _HttpConn, response: bytes) -> None:
        """Attach a response to a conn and start flushing it."""
        if self._conns.get(state.sock) is not state:
            return  # closed while parked
        state.outbuf = response
        try:
            assert self._selector is not None
            self._selector.modify(state.sock, selectors.EVENT_WRITE,
                                  ("http", None))
        except (KeyError, ValueError, OSError):
            self._close_conn(state.sock)
            return
        self._flush_conn(state)

    def _flush_conn(self, state: _HttpConn) -> None:
        try:
            sent = state.sock.send(state.outbuf)
            state.outbuf = state.outbuf[sent:]
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(state.sock)
            return
        if state.outbuf:
            return
        try:
            state.sock.shutdown(socket.SHUT_WR)
            assert self._selector is not None
            self._selector.modify(state.sock, selectors.EVENT_READ,
                                  ("http", None))
        except (KeyError, ValueError, OSError):
            self._close_conn(state.sock)
            return
        state.deadline = min(state.deadline,
                             time.monotonic() + framing.LINGER_S)

    def _close_conn(self, sock: socket.socket) -> None:
        self._conns.pop(sock, None)
        try:
            assert self._selector is not None
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _sweep_http(self, now: float) -> None:
        for sock, state in list(self._conns.items()):
            if now > state.deadline:
                self._close_conn(sock)

    def _respond(self, state: _HttpConn) -> Optional[bytes]:
        """The reply to the request head in ``state.inbuf``; ``None``
        while the head is incomplete, or once a ``/debug`` fan-out has
        parked the connection (:meth:`_finish_fanout` completes it)."""
        try:
            head = framing.parse_head(state.inbuf)
            if head is None:
                return None
            state.answered = True
            route = framing.match_route(CONTROL_ROUTES, head.method,
                                        head.path)
            if route == "/healthz":
                payload, healthy = self.health_payload()
                return self._json_response(200 if healthy else 503, payload)
            if route == "/metrics":
                if framing.wants_prometheus(head.query, head.headers):
                    return framing.render_response(
                        200, self.prometheus_body(), PROMETHEUS_CONTENT_TYPE,
                        close=True)
                return self._json_response(200, self.metrics_payload())
            op, args = parse_debug(head.path, head.query)
            self._start_debug_fanout(state, op, args)
            return None
        except ServiceError as exc:
            state.answered = True
            return self._json_response(exc.status, exc.to_payload())

    @staticmethod
    def _json_response(status: int, payload: Any) -> bytes:
        return framing.render_response(
            status, json.dumps(payload).encode("utf-8"), "application/json",
            close=True)

    # -- debug fan-out -------------------------------------------------------

    def _start_debug_fanout(self, state: _HttpConn, op: str,
                            args: Dict[str, Any]) -> None:
        """Forward one parsed ``/debug/*`` request to every READY worker
        and park ``state`` — :meth:`_finish_fanout` completes it once all
        replies land (or :meth:`_expire_fanouts` gives up at deadline).
        Raises ``no_live_workers`` when no worker took the frame.
        """
        grace = args["seconds"] + 10.0 if op == "profile" else 5.0
        self._debug_seq += 1
        now = time.monotonic()
        fan = _DebugFanout(op, state, now + grace)
        wire = encode_frame({"type": "debug", "id": self._debug_seq,
                             "op": op, "args": args})
        for slot in self.slots:
            if slot.state != READY or slot.sock is None:
                continue
            try:
                slot.sock.sendall(wire)
            except (BlockingIOError, OSError):
                continue  # dead channel; reaping will handle the worker
            fan.waiting.add(slot.index)
        if not fan.waiting:
            raise ServiceError("no_live_workers",
                               "no live worker to answer the debug request")
        self._debug_pending[self._debug_seq] = fan
        state.deadline = now + grace + 2.0  # outlive the fan-out deadline

    def _on_debug_reply(self, slot: WorkerSlot, message: Dict[str, Any]) -> None:
        fan = self._debug_pending.get(message.get("id"))
        if fan is None or slot.index not in fan.waiting:
            return
        fan.waiting.discard(slot.index)
        fan.replies[slot.index] = message.get("body")
        if not fan.waiting:
            self._finish_fanout(message["id"], fan)

    def _expire_fanouts(self, now: float) -> None:
        for seq, fan in list(self._debug_pending.items()):
            if now > fan.deadline:
                log(f"cluster: debug fan-out {seq} ({fan.op}) timed out "
                    f"awaiting slots {sorted(fan.waiting)}")
                self._finish_fanout(seq, fan)

    def _finish_fanout(self, seq: int, fan: _DebugFanout) -> None:
        self._debug_pending.pop(seq, None)
        replies = {
            index: body for index, body in fan.replies.items()
            if isinstance(body, dict)
        }
        if fan.op == "profile":
            # Profiles merge by summing samples per stack.
            merged: Counter = Counter()
            for body in replies.values():
                merged.update(body.get("folded") or {})
            response = framing.render_response(
                200, *folded_body(merged), close=True)
        elif fan.op == "trace":
            # Pool every worker's raw records, one per span, then
            # assemble one tree.
            pooled = {record.get("span_id"): record
                      for body in replies.values()
                      for record in body.get("records", ())}
            trace_id = next((body["trace_id"] for body in replies.values()
                             if body.get("trace_id")), "")
            tree = assemble_tree(list(pooled.values()), trace_id)
            tree["workers"] = sorted(replies)
            response = self._json_response(200, tree)
        else:
            response = self._json_response(200, {
                "workers": {str(index): body
                            for index, body in sorted(replies.items())},
            })
        self._complete_conn(fan.conn, response)

    # -- aggregation ---------------------------------------------------------

    def live_workers(self) -> int:
        return sum(1 for slot in self.slots if slot.state == READY)

    def health_payload(self) -> Tuple[Dict[str, Any], bool]:
        now = time.monotonic()
        live = self.live_workers()
        healthy = live >= self.quorum and not self._draining
        status = ("draining" if self._draining
                  else "ok" if live == self.num_workers
                  else "degraded" if healthy else "unhealthy")
        return {
            "status": status,
            "uptime_s": round(now - self.started_at, 3),
            "workers": {
                "configured": self.num_workers,
                "live": live,
                "quorum": self.quorum,
            },
            "worker_table": [slot.describe(now) for slot in self.slots],
        }, healthy

    def _observe_fleet_gauges(self) -> None:
        METRICS.gauge("cluster.workers", self.num_workers)
        METRICS.gauge("cluster.live", self.live_workers())
        METRICS.gauge("cluster.quorum", self.quorum)
        METRICS.gauge(
            "cluster.uptime_seconds",
            round(time.monotonic() - self.started_at, 3),
        )
        for slot in self.slots:
            labels = {"worker": slot.index}
            METRICS.gauge("cluster.worker.up",
                          1 if slot.state == READY else 0, labels=labels)
            METRICS.gauge("cluster.worker.restarts", slot.restarts,
                          labels=labels)
            METRICS.gauge("cluster.worker.breaker_open",
                          1 if slot.state == BROKEN else 0, labels=labels)

    def merged_registry(self) -> Dict[str, Any]:
        self._observe_fleet_gauges()
        per_worker = {
            str(slot.index): slot.metrics
            for slot in self.slots if slot.metrics
        }
        per_worker.update({
            f"{slot.index}-retired": slot.retired_metrics
            for slot in self.slots if slot.retired_metrics
        })
        return merge_snapshots(per_worker, base=METRICS.snapshot())

    def metrics_payload(self) -> Dict[str, Any]:
        health, _healthy = self.health_payload()
        registry = self.merged_registry()
        requests: Counter = Counter()
        for slot in self.slots:
            requests.update(slot.retired_requests)
            requests.update(
                {code: int(count) for code, count in slot.requests.items()})
        return {
            **health,
            "requests": dict(sorted(requests.items())),
            "fleet_latency": latency_summary(registry),
            "registry": registry,
        }

    def prometheus_body(self) -> bytes:
        return render_prometheus(self.merged_registry()).encode("utf-8")


def run_cluster(
    host: str,
    port: int,
    workers: int,
    **kwargs: Any,
) -> int:
    """Build, signal-wire and run a supervisor (the CLI path)."""
    supervisor = ClusterSupervisor(host=host, port=port, workers=workers,
                                   **kwargs)
    supervisor.start()
    supervisor.install_signal_handlers()
    print(f"cluster serving on http://{supervisor.host}:{supervisor.port} "
          f"({workers} workers; control "
          f"http://{supervisor.host}:{supervisor.control_port})",
          flush=True)
    return supervisor.run()
