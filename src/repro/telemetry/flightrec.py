"""Span records, the flight recorder and W3C-style request trace context.

Every span in this codebase — pipeline stages and serving tiers alike —
is one *record*: a plain JSON-ready dict built by :func:`make_record`
(see :mod:`repro.telemetry.tracer` for the ``span()`` that files them).

* **Trace context** — a W3C-``traceparent``-shaped ``(trace_id,
  span_id)`` pair minted at the service edge (or accepted from the
  client), carried in one contextvar so structured log lines and child
  spans can reference it.  Helpers parse and format the header
  (``00-<32 hex>-<16 hex>-01``); ids are random (``os.urandom``), never
  sequential, so traces from different processes cannot collide.
* **Flight recorder** — a bounded ring (``REPRO_FLIGHT_SPANS``, default
  4096, ``0`` disables) of completed span records, each carrying
  ``trace_id``/``span_id``/``parent_id`` plus ``links`` to the traces a
  shared span served.  Recording is one small dict append under a lock,
  and snapshots copy the ring without stopping recording.
  Per-route/workload reservoirs keep the slowest requests and the most
  recent errors even after the ring has wrapped past them.
* **Tree assembly** — :func:`children_index` groups records by
  ``parent_id``; :func:`nest` turns records into nested trees through
  it, and :func:`assemble_tree` stitches the records of one trace id
  (from one process or a whole fleet) into a single tree.  A record
  included via a *link* (e.g. a coalesced batch span that served many
  traces) is grafted under the linked member span, so every member
  trace reads as one tree: request → batch → kernel.

Span records are shipped across processes as-is: cluster workers send
them over the control channel (``debug``/``debug_reply`` frames), and
the supervisor merges the raw records before assembling.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .log import set_trace_id_provider, warn_env_once

#: Default ring capacity (completed span records kept).
DEFAULT_CAPACITY = 4096

#: Slow-request exemplars kept per route/workload key.
SLOW_KEEP = 8

#: Error exemplars kept per route/workload key.
ERROR_KEEP = 8


def _env_capacity() -> int:
    raw = os.environ.get("REPRO_FLIGHT_SPANS", "").strip()
    if not raw:
        return DEFAULT_CAPACITY
    try:
        value = int(raw)
    except ValueError:
        warn_env_once("REPRO_FLIGHT_SPANS", raw,
                      f"using the default ({DEFAULT_CAPACITY})")
        return DEFAULT_CAPACITY
    return max(0, value)


# -- trace ids / traceparent --------------------------------------------------


def new_trace_id() -> str:
    """32 lowercase hex chars (16 random bytes)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """16 lowercase hex chars (8 random bytes)."""
    return os.urandom(8).hex()


def format_traceparent(trace_id: str, span_id: str) -> str:
    """``00-<trace_id>-<span_id>-01`` (version 00, sampled flag set)."""
    return f"00-{trace_id}-{span_id}-01"


_ZERO_TRACE = "0" * 32
_ZERO_SPAN = "0" * 16


def _is_hex(value: str, length: int) -> bool:
    if len(value) != length or value != value.lower():
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a traceparent header, or None.

    Tolerant of future versions (any 2-hex version except ``ff``);
    all-zero ids are invalid per the W3C spec and rejected.
    """
    if not header:
        return None
    # Fast path: the canonical form this codebase mints ("00-<32>-<16>-01")
    # is 55 chars with dashes at fixed offsets — slice and hex-check it
    # without building a split list (this runs once per traced request).
    if (len(header) == 55 and header[0] == "0" and header[1] == "0"
            and header[2] == "-" and header[35] == "-" and header[52] == "-"):
        trace_id, span_id = header[3:35], header[36:52]
        if (_is_hex(trace_id, 32) and trace_id != _ZERO_TRACE
                and _is_hex(span_id, 16) and span_id != _ZERO_SPAN):
            return trace_id, span_id
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id = parts[0], parts[1], parts[2]
    if not _is_hex(version, 2) or version == "ff":
        return None
    if not _is_hex(trace_id, 32) or trace_id == _ZERO_TRACE:
        return None
    if not _is_hex(span_id, 16) or span_id == _ZERO_SPAN:
        return None
    return trace_id, span_id


#: The active ``(trace_id, span_id)`` pair, or None outside any request.
_CURRENT: contextvars.ContextVar[Optional[Tuple[str, str]]] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current_trace() -> Optional[Tuple[str, str]]:
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    pair = _CURRENT.get()
    return pair[0] if pair else None


class trace_scope:
    """Context manager installing ``(trace_id, span_id)`` as the active
    trace context for the dynamic extent of a request."""

    __slots__ = ("_pair", "_token")

    def __init__(self, trace_id: str, span_id: str):
        self._pair = (trace_id, span_id)
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Tuple[str, str]:
        self._token = _CURRENT.set(self._pair)
        return self._pair

    def __exit__(self, *exc: Any) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)


# Structured log lines pick the trace id up through this hook (log.py
# cannot import us — it is lower in the import graph).
set_trace_id_provider(current_trace_id)


# -- span records -------------------------------------------------------------


def make_record(
    name: str,
    trace_id: str,
    span_id: str,
    *,
    parent_id: Optional[str] = None,
    kind: str = "span",
    key: Optional[str] = None,
    start: Optional[float] = None,
    duration_ms: float = 0.0,
    status: str = "ok",
    links: Optional[List[Dict[str, str]]] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """One completed-span record (a plain JSON-ready dict).

    ``kind`` classifies the tier (``span`` for a pipeline stage, or
    ``request`` / ``batch``); ``key`` is the route or
    workload the reservoirs bucket by; ``links`` lists ``{"trace_id",
    "span_id"}`` pairs for every *other* trace this span served
    (coalesced batches).  Extra keyword fields (a span's attributes,
    ``cpu_ms`` and ``counters``) ride along verbatim.
    """
    record: Dict[str, Any] = {
        "name": name,
        "kind": kind,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "key": key or name,
        "pid": os.getpid(),
        "start": time.time() if start is None else start,
        "duration_ms": round(float(duration_ms), 3),
        "status": status,
    }
    if links:
        record["links"] = list(links)
    if extra:
        record.update(extra)
    return record


class FlightRecorder:
    """Bounded ring of completed span records + slow/error reservoirs.

    Thread-safe; ``record`` is a dict append under one lock (no I/O, no
    allocation beyond the record itself), so it stays on even in the
    hot serving path.  ``capacity == 0`` disables recording entirely.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = _env_capacity() if capacity is None else max(0, capacity)
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity or 1)
        self._slow: Dict[str, List[Dict[str, Any]]] = {}
        # Admission floor per key: the smallest duration_ms currently in
        # a *full* reservoir.  Most requests fall below it, turning the
        # common case into one float compare instead of a sort.
        self._slow_floor: Dict[str, float] = {}
        self._errors: Dict[str, deque] = {}
        self._recorded = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @property
    def recorded(self) -> int:
        """Records filed since the last reset (ring wraps included)."""
        return self._recorded

    # -- recording ----------------------------------------------------------

    def record(self, record: Dict[str, Any]) -> None:
        if not self.capacity:
            return
        key = str(record.get("key") or record.get("name") or "?")
        with self._lock:
            self._ring.append(record)
            self._recorded += 1
            if record.get("status", "ok") != "ok":
                errors = self._errors.get(key)
                if errors is None:
                    errors = self._errors[key] = deque(maxlen=ERROR_KEEP)
                errors.append(record)
            elif record.get("kind") == "request":
                slow = self._slow.get(key)
                if slow is None:
                    slow = self._slow[key] = []
                if len(slow) < SLOW_KEEP:
                    slow.append(record)
                elif record.get("duration_ms", 0.0) > \
                        self._slow_floor.get(key, 0.0):
                    slow.append(record)
                    slow.sort(key=lambda r: r.get("duration_ms", 0.0),
                              reverse=True)
                    del slow[SLOW_KEEP:]
                    self._slow_floor[key] = \
                        slow[-1].get("duration_ms", 0.0)

    # -- reading (never stops the world) ------------------------------------

    def snapshot(self, limit: int = 50) -> Dict[str, Any]:
        """Recent / slow / error exemplars, newest-first recents."""
        with self._lock:
            recent = list(self._ring)[-limit:]
            slow = {
                key: sorted(records,
                            key=lambda r: r.get("duration_ms", 0.0),
                            reverse=True)[:SLOW_KEEP]
                for key, records in self._slow.items()
            }
            errors = {key: list(records)
                      for key, records in self._errors.items()}
            recorded = self._recorded
        recent.reverse()
        return {
            "capacity": self.capacity,
            "recorded": recorded,
            "recent": recent,
            "slow": slow,
            "errors": errors,
        }

    def since(self, mark: int = 0) -> List[Dict[str, Any]]:
        """Records filed after :attr:`recorded` read ``mark``, oldest
        first, as far as the ring still holds them (``since()`` returns
        the whole ring)."""
        with self._lock:
            count = min(self._recorded - mark, len(self._ring))
            records = list(islice(reversed(self._ring), max(0, count)))
        records.reverse()
        return records

    def records_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every retained record belonging to (or linked into) a trace,
        with its descendants (see :func:`assemble_tree`)."""
        with self._lock:
            candidates = list(self._ring)
            for records in self._slow.values():
                candidates.extend(records)
            for records in self._errors.values():
                candidates.extend(records)
        return [record for record, _ in
                _trace_members(candidates, trace_id).values()]

    def resize(self, capacity: int) -> int:
        """Change the ring capacity live; returns the new capacity.

        ``0`` disables recording without restarting the server (and a
        later resize re-enables it) — this is how overhead A/B runs
        compare modes inside *one* process instead of across two, whose
        identical-twin variance dwarfs the recorder's cost.  The newest
        records that still fit are kept; reservoirs are untouched.
        """
        capacity = max(0, int(capacity))
        with self._lock:
            if capacity != self.capacity:
                self.capacity = capacity
                self._ring = deque(self._ring, maxlen=capacity or 1)
                if not capacity:
                    self._ring.clear()
        return capacity

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
            self._slow.clear()
            self._slow_floor.clear()
            self._errors.clear()
            self._recorded = 0


def _start(record: Dict[str, Any]) -> float:
    return record.get("start", 0.0)


def children_index(
    records: Iterable[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Records that have a parent, grouped by ``parent_id``, each group
    in start order."""
    index: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent:
            index.setdefault(parent, []).append(record)
    for group in index.values():
        group.sort(key=_start)
    return index


def nest(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Records as trees: copies with a ``children`` list, rooted at the
    records whose parent is not among them, in start order.  A repeated
    ``span_id`` keeps its first record."""
    unique: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.get("span_id"):
            unique.setdefault(record["span_id"], record)
    index = children_index(unique.values())

    def build(record: Dict[str, Any]) -> Dict[str, Any]:
        node = dict(record)
        node["children"] = [build(child)
                            for child in index.get(record["span_id"], ())]
        return node

    roots = [r for r in unique.values() if r.get("parent_id") not in unique]
    return [build(root) for root in sorted(roots, key=_start)]


def _trace_members(
    records: List[Dict[str, Any]], trace_id: str,
) -> Dict[str, Tuple[Dict[str, Any], Optional[str]]]:
    """``span_id -> (record, tree parent)`` for one trace.

    A record matches when its ``trace_id`` is the target (tree parent:
    its ``parent_id``) or a ``links`` entry names the target (tree
    parent: the linked span).  Descendants of matched records come along
    through one walk of the children index, even when they carry another
    trace id: kernel spans under a coalesced batch span inherit the
    *head* request's trace but belong in every member's tree.
    """
    members: Dict[str, Tuple[Dict[str, Any], Optional[str]]] = {}
    for record in records:
        span_id = record.get("span_id")
        if not span_id or span_id in members:
            continue
        if record.get("trace_id") == trace_id:
            members[span_id] = (record, record.get("parent_id"))
            continue
        for link in record.get("links", ()):
            if link.get("trace_id") == trace_id:
                members[span_id] = (record, link.get("span_id"))
                break
    index = children_index(records)
    frontier = list(members)
    while frontier:
        for child in index.get(frontier.pop(), ()):
            span_id = child.get("span_id")
            if span_id and span_id not in members:
                members[span_id] = (child, child.get("parent_id"))
                frontier.append(span_id)
    return members


def assemble_tree(
    records: Iterable[Dict[str, Any]], trace_id: str,
) -> Dict[str, Any]:
    """Stitch span records (possibly from many processes) into one tree
    for ``trace_id``.

    A record matched via a link is grafted under the linked member span
    (its node's ``parent_id`` names that span, and ``linked: true``), so
    a coalesced batch span appears exactly once in *each* member's tree.
    Returns ``{"trace_id", "span_count", "pids", "roots"}``.
    """
    members = _trace_members(list(records), trace_id)
    grafted = [
        record if parent == record.get("parent_id")
        else dict(record, parent_id=parent, linked=True)
        for record, parent in members.values()
    ]
    return {
        "trace_id": trace_id,
        "span_count": len(grafted),
        "pids": sorted({r.get("pid") for r in grafted
                        if r.get("pid") is not None}),
        "roots": nest(grafted),
    }


#: Process-wide flight recorder: every recorded span lands here.
FLIGHT = FlightRecorder()

if hasattr(os, "register_at_fork"):
    # Prefork cluster workers are forked children that record spans.  A
    # lock that another parent thread held at fork time is never released
    # in the child.
    os.register_at_fork(
        after_in_child=lambda: setattr(FLIGHT, "_lock", threading.Lock()))
