"""Small stdlib client for the diagnosis service.

One :class:`ServiceClient` wraps one keep-alive ``http.client`` connection
— cheap per-request, **not** thread-safe; give each thread its own client
(that is what ``scripts/loadgen.py`` does).  Server-reported failures come
back as :class:`repro.service.protocol.ServiceError` with the stable code,
so callers branch on ``exc.code`` exactly as they would on the wire.

Usage::

    with ServiceClient(port=8953) as client:
        client.wait_ready()
        reply = client.diagnose(DiagnoseRequest(circuit="s953", fault_index=0))
        print(reply.candidate_cells)
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.parse
from typing import Any, Dict, Optional, Union

from ..telemetry import format_traceparent, new_span_id
from .protocol import DiagnoseReply, DiagnoseRequest, ServiceError


class TransportError(Exception):
    """The server could not be reached (connection refused, reset, EOF)."""


class ServiceClient:
    """JSON-over-HTTP client for one diagnosis server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8953,
                 timeout_s: float = 60.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 extra_headers: Optional[Dict[str, str]] = None,
                 raw: bool = False) -> tuple:
        """(status, decoded JSON payload); retries once on a stale socket.

        ``raw=True`` returns a successful reply's body bytes undecoded
        (``/debug/profile`` answers ``text/plain``); errors are JSON.
        """
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        if extra_headers:
            headers.update(extra_headers)
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, OSError) as exc:
                # A keep-alive socket the server closed looks like a broken
                # pipe on the *next* request — reconnect once, then give up.
                self.close()
                if attempt:
                    raise TransportError(f"{method} {path}: {exc}") from exc
        if raw and response.status < 400:
            return response.status, data
        try:
            decoded = json.loads(data.decode("utf-8")) if data else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TransportError(
                f"{method} {path}: undecodable response body") from exc
        return response.status, decoded

    @staticmethod
    def _raise_for_error(status: int, payload: Dict[str, Any]) -> None:
        error = payload.get("error")
        if status < 400 and not error:
            return
        if isinstance(error, dict) and error.get("code"):
            raise ServiceError(
                error["code"],
                error.get("message", ""),
                retry_after_s=error.get("retry_after_s"),
            )
        raise TransportError(f"HTTP {status} without an error payload")

    # -- API -----------------------------------------------------------------

    def diagnose(
        self, request: Union[DiagnoseRequest, Dict[str, Any]],
        trace_id: Optional[str] = None,
    ) -> DiagnoseReply:
        """POST one diagnosis request.

        ``trace_id`` (32 lowercase hex chars; mint one with
        ``repro.telemetry.new_trace_id()``) rides the ``traceparent``
        header so the server threads it through coalescing and the
        engine; the reply's ``trace_id`` always names the trace
        (client-supplied or server-minted) — feed it to
        :meth:`debug_trace` for the assembled span tree.
        """
        body = request.to_payload() if isinstance(request, DiagnoseRequest) \
            else dict(request)
        extra = None
        if trace_id:
            extra = {"traceparent": format_traceparent(trace_id, new_span_id())}
        status, payload = self._request("POST", "/diagnose", body,
                                        extra_headers=extra)
        self._raise_for_error(status, payload)
        return DiagnoseReply.from_payload(payload)

    def health(self) -> Dict[str, Any]:
        """The /healthz payload (raises nothing on 'draining' — check
        ``payload['status']``)."""
        _, payload = self._request("GET", "/healthz")
        return payload

    def metrics(self) -> Dict[str, Any]:
        status, payload = self._request("GET", "/metrics")
        self._raise_for_error(status, payload)
        return payload

    def debug_requests(self, limit: int = 50) -> Dict[str, Any]:
        """Flight-recorder snapshot: recent/slow/error request exemplars."""
        status, payload = self._request("GET", f"/debug/requests?limit={limit}")
        self._raise_for_error(status, payload)
        return payload

    def debug_trace(self, trace_id: str) -> Dict[str, Any]:
        """The assembled span tree (plus raw records) for one trace id."""
        quoted = urllib.parse.quote(trace_id, safe="")
        status, payload = self._request("GET", f"/debug/trace/{quoted}")
        self._raise_for_error(status, payload)
        return payload

    def debug_flightrec(self, capacity: Optional[int] = None) -> Dict[str, Any]:
        """Flight-recorder state; pass ``capacity`` to resize it live
        (``0`` disables recording until a later resize)."""
        if capacity is None:
            status, payload = self._request("GET", "/debug/flightrec")
        else:
            status, payload = self._request("POST", "/debug/flightrec",
                                            {"capacity": capacity})
        self._raise_for_error(status, payload)
        return payload

    def debug_profile(self, seconds: float = 1.0,
                      hz: Optional[int] = None) -> str:
        """On-demand profiler burst; returns collapsed-stack text."""
        path = f"/debug/profile?seconds={seconds:g}"
        if hz:
            path += f"&hz={hz}"
        status, data = self._request("GET", path, raw=True)
        if status >= 400:
            self._raise_for_error(status, data)
        return data.decode("utf-8")

    def wait_ready(self, timeout_s: float = 30.0, interval_s: float = 0.05) -> None:
        """Poll /healthz until the server answers (readiness gate)."""
        give_up = time.monotonic() + timeout_s
        last: Optional[Exception] = None
        while time.monotonic() < give_up:
            try:
                self.health()
                return
            except (TransportError, ServiceError) as exc:
                last = exc
                time.sleep(interval_s)
        raise TransportError(
            f"server at {self.host}:{self.port} not ready after "
            f"{timeout_s:.0f}s ({last!r})")
