"""Worker-process runtime for the prefork cluster.

Each worker is a full :class:`~repro.service.server.DiagnosisServer`
(its own event loop, batch queue and executor) accepting on a
socket shared with its siblings — either its own ``SO_REUSEPORT`` bind of
the cluster port (the kernel load-balances accepts) or the supervisor's
inherited listen FD.  On top of serving it runs exactly one extra task:
the heartbeat loop, which ships liveness plus the worker's
``MetricsRegistry`` snapshot (request latency included, as the
``service.request_seconds`` histogram) to the supervisor over the
control socket every ``heartbeat_s``.

The control socket is read as well as written: the supervisor forwards
``GET /debug/*`` requests from its control port as ``debug`` frames
carrying :func:`~repro.service.server.parse_debug`'s ``(op, args)``, and
the worker answers with a ``debug_reply`` carrying what
:meth:`~repro.service.server.DiagnosisServer.debug` returned — the
supervisor merges the per-worker bodies into one fleet-wide answer.

Lifecycle:

* fork → reset inherited signal dispositions and the (supervisor-
  polluted) metrics registry → bind/adopt the listen socket;
* start serving → warm the disk-cache tier and prewarm circuits →
  send ``ready`` (the supervisor counts a worker into quorum only after
  this, so a rolling restart never routes to a cold process);
* SIGTERM → drain (finish queued + in-flight batches, 503 new work) →
  send ``drained`` → exit 0;
* supervisor death (control socket EOF/EPIPE) → drain and exit, so
  ``kill -9`` of the supervisor never leaves orphan accept loops.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
from typing import Any, Dict, Iterable, Optional

from ..service.engine import DiagnosisEngine
from ..service.protocol import DiagnoseRequest, ServiceError
from ..service.server import DiagnosisServer
from ..telemetry import METRICS, log
from .control import ControlChannelError, FrameDecoder, encode_frame

#: Signals whose inherited dispositions a fresh worker resets.
_RESET_SIGNALS = ("SIGTERM", "SIGINT", "SIGHUP", "SIGCHLD", "SIGUSR1")


def bind_reuseport(host: str, port: int) -> socket.socket:
    """A worker-owned listen socket on the shared cluster port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def worker_main(
    slot: int,
    control_sock: socket.socket,
    *,
    host: str,
    port: int,
    sharing: str,
    listen_sock: Optional[socket.socket] = None,
    server_kwargs: Optional[Dict[str, Any]] = None,
    engine_kwargs: Optional[Dict[str, Any]] = None,
    heartbeat_s: float = 1.0,
    prewarm: Iterable[str] = (),
    disk_warm: bool = True,
) -> int:
    """Run one cluster worker to completion; returns the exit code.

    Called in the child immediately after ``fork`` (the supervisor's
    default spawn path) with either ``listen_sock`` (inherited-FD
    sharing) or ``sharing="reuseport"`` (the worker binds its own).
    """
    for name in _RESET_SIGNALS:
        signum = getattr(signal, name, None)
        if signum is not None:
            signal.signal(signum, signal.SIG_DFL)
    # The forked registry carries the supervisor's cluster gauges; reset
    # so heartbeat snapshots describe only this worker's own activity.
    METRICS.reset()

    if sharing == "reuseport":
        sock = bind_reuseport(host, port)
    elif listen_sock is not None:
        sock = listen_sock
    else:
        raise ValueError(f"sharing={sharing!r} requires a listen socket")

    engine = DiagnosisEngine(**(engine_kwargs or {}))
    server = DiagnosisServer(
        host=host, port=port, engine=engine, sock=sock,
        **(server_kwargs or {}),
    )
    try:
        return asyncio.run(_run_worker(
            slot, control_sock, server, engine,
            heartbeat_s=heartbeat_s, prewarm=tuple(prewarm or ()),
            disk_warm=disk_warm,
        ))
    finally:
        control_sock.close()


async def _run_worker(
    slot: int,
    control_sock: socket.socket,
    server: DiagnosisServer,
    engine: DiagnosisEngine,
    *,
    heartbeat_s: float,
    prewarm: Iterable[str],
    disk_warm: bool,
) -> int:
    loop = asyncio.get_event_loop()
    control_sock.setblocking(False)
    send_lock = asyncio.Lock()

    async def send(message: Dict[str, Any]) -> bool:
        message.setdefault("slot", slot)
        message.setdefault("pid", os.getpid())
        try:
            async with send_lock:
                await loop.sock_sendall(control_sock, encode_frame(message))
            return True
        except (ConnectionError, BrokenPipeError, OSError):
            return False

    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            signum, lambda: asyncio.ensure_future(server.shutdown(drain=True))
        )

    await server.start()
    if disk_warm:
        await loop.run_in_executor(None, engine.warm_from_disk)
    for circuit in prewarm:
        request = DiagnoseRequest.from_payload(
            {"circuit": circuit, "fault_index": 0})
        await loop.run_in_executor(None, engine.prewarm, request)
        log(f"cluster[{slot}]: prewarmed {circuit}")
    if not await send({"type": "ready", "port": server.port}):
        log(f"cluster[{slot}]: supervisor gone before ready; exiting")
        await server.shutdown(drain=False)
        return 0
    log(f"cluster[{slot}]: ready on port {server.port} (pid {os.getpid()})")

    async def handle_debug(message: Dict[str, Any]) -> None:
        """Answer one ``debug`` frame (runs as its own task — a profile
        burst sleeps for seconds and must not stall the control reader)."""
        op = message.get("op")
        try:
            body = await server.debug(op, message.get("args") or {})
        except ServiceError as exc:
            body = exc.to_payload()
        except Exception as exc:  # noqa: BLE001 - debug must not kill serving
            body = ServiceError("internal_error", repr(exc)).to_payload()
        await send({"type": "debug_reply", "id": message.get("id"),
                    "op": op, "body": body})

    async def control_loop() -> None:
        """Read supervisor frames (today: only ``debug`` requests)."""
        decoder = FrameDecoder()
        while True:
            try:
                data = await loop.sock_recv(control_sock, 65536)
            except (ConnectionError, OSError):
                return
            if not data:
                return  # EOF: heartbeat send will notice and drain
            try:
                messages = decoder.feed(data)
            except ControlChannelError as exc:
                log(f"cluster[{slot}]: corrupt control frame ({exc})")
                return
            for message in messages:
                if message.get("type") == "debug":
                    asyncio.ensure_future(handle_debug(message))

    async def heartbeat_loop() -> None:
        while True:
            alive = await send({
                "type": "heartbeat",
                "draining": server.draining,
                "requests": dict(server._request_counts),
                "metrics": METRICS.snapshot(),
            })
            if not alive:
                # Supervisor died; drain and exit instead of serving as
                # an unsupervised orphan.
                log(f"cluster[{slot}]: control channel closed; draining")
                asyncio.ensure_future(server.shutdown(drain=True))
                return
            await asyncio.sleep(heartbeat_s)

    heartbeat = asyncio.ensure_future(heartbeat_loop())
    control = asyncio.ensure_future(control_loop())
    try:
        await server.serve_forever()
    finally:
        heartbeat.cancel()
        control.cancel()
        await asyncio.gather(heartbeat, control, return_exceptions=True)
    await send({"type": "drained"})
    return 0
