"""Framed-JSON control channel between the supervisor and its workers.

Each worker holds one end of a ``socket.socketpair()`` created before the
fork; everything it tells the supervisor — readiness, heartbeats with
telemetry snapshots, drain completion — travels as length-prefixed JSON
frames.  The framing is deliberately trivial (4-byte little-endian length
+ UTF-8 JSON) so both sides stay dependency-free and a half-received
frame survives across ``recv`` boundaries.

The supervisor reads non-blocking through :class:`FrameDecoder`, an
incremental parser that buffers partial frames between ``feed`` calls;
the worker writes through :func:`send_message` (blocking ``sendall`` from
its heartbeat task).  A frame larger than :data:`MAX_FRAME_BYTES` marks
the channel corrupt — the supervisor treats that worker as lost and
respawns it rather than guessing at resynchronization.

Message types (``msg["type"]``):

* ``ready``     — the worker's server is listening and warmed;
  carries ``slot``, ``pid`` and the bound ``port``.
* ``heartbeat`` — periodic liveness beacon; carries only what the
  supervisor reads: ``draining``, the ``requests`` counts and the
  worker's ``metrics`` snapshot for fleet aggregation (its histograms
  carry log buckets, so the supervisor merges latency losslessly).
* ``drained``   — drain finished; the worker is about to exit 0.
* ``debug``     — supervisor → worker: one forwarded ``GET /debug/*``
  request; carries ``id`` (correlation), ``op`` (``requests`` /
  ``trace`` / ``profile``) and the op's parameters (``limit``,
  ``trace_id``, ``seconds``/``hz``).
* ``debug_reply`` — worker → supervisor: echoes ``id``/``op`` plus the
  op's ``body`` (flight snapshot, trace records, or folded stacks); the
  supervisor merges bodies across workers before answering HTTP.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List

#: Frame header: payload length, little-endian uint32.
HEADER = struct.Struct("<I")

#: Upper bound on a single frame; a registry snapshot is a few KiB, so
#: anything near this indicates channel corruption, not a big snapshot.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ControlChannelError(Exception):
    """An unrecoverable framing failure (oversized or garbled frame)."""


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One wire-ready frame for ``message``."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ControlChannelError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return HEADER.pack(len(payload)) + payload


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Blocking send of one frame (worker side)."""
    sock.sendall(encode_frame(message))


class FrameDecoder:
    """Incremental frame parser for the supervisor's non-blocking reads.

    ``feed`` returns every complete message the new bytes finished;
    partial frames stay buffered.  Corruption (an impossible length)
    raises :class:`ControlChannelError` — callers drop the worker.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while len(self._buffer) >= HEADER.size:
            (length,) = HEADER.unpack_from(self._buffer, 0)
            if length > MAX_FRAME_BYTES:
                raise ControlChannelError(
                    f"frame length {length} exceeds {MAX_FRAME_BYTES}")
            end = HEADER.size + length
            if len(self._buffer) < end:
                break
            raw = bytes(self._buffer[HEADER.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ControlChannelError(f"undecodable frame: {exc}") from exc
            if not isinstance(message, dict):
                raise ControlChannelError(
                    f"frame holds {type(message).__name__}, not an object")
            messages.append(message)
        return messages

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
