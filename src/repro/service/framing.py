"""HTTP/1.1 framing shared by the diagnosis server and the cluster control port.

No I/O: each endpoint reads bytes its own way (asyncio streams, a
``selectors`` loop), hands them to :func:`parse_head` and writes what
:func:`render_response` returns.  Framing errors raise ``ServiceError``
``malformed_payload`` (400); the caller answers and closes, because
after bad framing the stream cannot be trusted to hold another request.
"""

from __future__ import annotations

import re
from typing import Dict, Mapping, NamedTuple, Optional, Sequence
from urllib.parse import parse_qs

from .protocol import ServiceError

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds an endpoint that answered and half-closed drops what the
#: client still sends: closing with input unread resets the connection,
#: which can destroy the reply before the client reads it.
LINGER_S = 2.0

#: Reason phrases for every status the server and the cluster control
#: port answer with.
REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: The blank line ending a head; CRLF and bare-LF line endings both count.
_HEAD_END = re.compile(rb"\n\r?\n")


class RequestHead(NamedTuple):
    """A parsed request line plus headers (names lower-cased)."""

    method: str
    path: str
    query: str
    headers: Dict[str, str]
    content_length: int
    #: The request line's protocol, e.g. ``HTTP/1.1``.
    version: str

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 persists unless the client sent a ``close`` token;
        HTTP/1.0 closes unless it sent a ``keep-alive`` token."""
        tokens = [token.strip() for token in
                  self.headers.get("connection", "").lower().split(",")]
        if self.version == "HTTP/1.0":
            return "keep-alive" in tokens and "close" not in tokens
        return "close" not in tokens


def malformed(message: str) -> ServiceError:
    return ServiceError("malformed_payload", message)


def parse_head(buffer: bytes) -> Optional[RequestHead]:
    """Parse the request head at the start of ``buffer``; None until the
    blank line ending it has arrived.

    Rejects chunked or any other ``Transfer-Encoding``: the service only
    reads ``Content-Length`` bodies, and guessing where an encoded body
    ends would desync the next request on a keep-alive connection.
    """
    if buffer.startswith((b"\n", b"\r\n")):
        raise malformed("malformed request line")
    end = _HEAD_END.search(buffer, 0, MAX_HEADER_BYTES)
    if end is None:
        if len(buffer) >= MAX_HEADER_BYTES:
            raise malformed("headers too large")
        return None
    lines = buffer[:end.start()].decode("latin-1").split("\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise malformed("malformed request line")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise malformed("malformed header")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise malformed("Transfer-Encoding is not supported; "
                        "send Content-Length")
    length = headers.get("content-length") or "0"
    if not (length.isascii() and length.isdigit()):
        raise malformed("bad Content-Length")
    if int(length) > MAX_BODY_BYTES:
        raise malformed("body too large")
    path, _, query = parts[1].partition("?")
    return RequestHead(parts[0].upper(), path, query, headers, int(length),
                       parts[2])


def match_route(routes: Mapping[str, Sequence[str]], method: str,
                path: str) -> str:
    """The key of ``routes`` (path -> allowed methods) serving ``path``.

    A key ending in ``/`` matches every path under it.  Raises
    ``no_such_route`` (404) or ``method_not_allowed`` (405).
    """
    route = path if path in routes else next(
        (key for key in routes if key.endswith("/") and path.startswith(key)),
        None)
    if route is None:
        raise ServiceError("no_such_route", f"no route for {path}")
    if method not in routes[route]:
        raise ServiceError("method_not_allowed",
                           f"use {' or '.join(routes[route])} {route}")
    return route


def render_response(status: int, body: bytes, content_type: str,
                    close: bool,
                    extra_headers: Optional[Mapping[str, str]] = None) -> bytes:
    """The full response bytes: status line, headers, blank line, body."""
    head = (f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n")
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def wants_prometheus(query: str, headers: Dict[str, str]) -> bool:
    """Content negotiation for ``GET /metrics``.

    ``?format=prometheus`` (or ``?format=json``) wins outright;
    otherwise an ``Accept`` header naming ``text/plain`` (what
    Prometheus scrapers send) selects the text exposition.  Everything
    else — including unknown formats — keeps the JSON default, so
    existing consumers can never be broken by a typo.  ``headers`` keys
    are lower-case.
    """
    fmt = (parse_qs(query).get("format") or [""])[0].strip().lower()
    if fmt == "prometheus":
        return True
    if fmt:
        return False
    accept = headers.get("accept", "").lower()
    return "text/plain" in accept and "application/json" not in accept
