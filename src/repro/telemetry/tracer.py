"""Spans over the diagnosis pipeline and the serving tiers, filed as
flight records.

``span(name, **attrs)`` times one stage.  On entry it installs its own
``(trace_id, span_id)`` as the active trace context — the contextvar
:class:`repro.telemetry.flightrec.trace_scope` uses — so nested spans
read their parent from it; a root outside any request mints a trace id.
On exit it files one record (:func:`repro.telemetry.flightrec.make_record`)
into :data:`repro.telemetry.flightrec.FLIGHT` with wall and CPU time,
its attributes as top-level fields, and a ``counters`` dict.

Recording rule: pipeline spans (``kind="span"``) are recorded only while
tracing is on (``REPRO_TRACE=1`` or :func:`enable_tracing`); otherwise
:func:`span` returns :data:`NULL_SPAN`, which touches neither the context
nor the recorder.  The serving tiers (``kind`` ``request`` / ``batch`` /
``chunk``) are always recorded.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from .flightrec import _CURRENT, FLIGHT, make_record, new_span_id, new_trace_id
from .log import warn_env_once

#: ``REPRO_TRACE`` spellings that switch tracing on / off.  Anything else
#: warns once (:func:`repro.telemetry.log.warn_env_once`) and stays off.
_TRACE_ON = ("1", "true", "on", "yes")
_TRACE_OFF = ("", "0", "false", "off", "no")


def _trace_env_enabled() -> bool:
    raw = os.environ.get("REPRO_TRACE", "").strip().lower()
    if raw in _TRACE_ON:
        return True
    if raw not in _TRACE_OFF:
        warn_env_once("REPRO_TRACE", raw, "keeping tracing disabled")
    return False


_ENABLED = _trace_env_enabled()

#: Name of the innermost open span per thread ident.  The sampling
#: profiler (:mod:`repro.telemetry.profiler`) reads this from its signal
#: handler / sampler thread to attribute stack samples to pipeline
#: stages; a contextvar cannot serve that purpose because the sampler
#: thread runs in its own context.  Plain dict ops under the GIL.
_THREAD_SPANS: Dict[int, str] = {}


def active_span_name(ident: Optional[int] = None) -> Optional[str]:
    """Name of the span currently open in the given thread (default: the
    calling thread), or None outside any span."""
    if ident is None:
        ident = threading.get_ident()
    return _THREAD_SPANS.get(ident)


class _NullSpan:
    """Shared do-nothing stand-in for a span that is not recorded."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    def add(self, counter: str, value: int = 1) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    """An open span; ``trace_id`` / ``span_id`` are valid once entered.

    A request span lives across awaits on the event loop, where other
    requests interleave, so it does not claim the thread for the
    profiler's span label.
    """

    __slots__ = ("name", "kind", "attributes", "counters", "trace_id",
                 "span_id", "parent_id", "_parent", "_token", "_prev_name",
                 "_start", "_wall0", "_cpu0")

    def __init__(self, name: str, kind: str,
                 parent: Optional[Tuple[str, str]], attributes: Dict[str, Any]):
        self.name = name
        self.kind = kind
        self._parent = parent
        self.attributes = attributes
        self.counters: Dict[str, int] = {}

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add(self, counter: str, value: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def __enter__(self) -> "_Span":
        context = self._parent or _CURRENT.get()
        if context is None:
            self.trace_id, self.parent_id = new_trace_id(), None
        else:
            self.trace_id, self.parent_id = context
        self.span_id = new_span_id()
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        if self.kind != "request":
            ident = threading.get_ident()
            self._prev_name = _THREAD_SPANS.get(ident)
            _THREAD_SPANS[ident] = self.name
        self._start = time.time()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        wall_s = time.perf_counter() - self._wall0
        cpu_s = time.process_time() - self._cpu0
        _CURRENT.reset(self._token)
        if self.kind != "request":
            ident = threading.get_ident()
            if self._prev_name is None:
                _THREAD_SPANS.pop(ident, None)
            else:
                _THREAD_SPANS[ident] = self._prev_name
        FLIGHT.record(make_record(
            self.name, self.trace_id, self.span_id,
            parent_id=self.parent_id, kind=self.kind, start=self._start,
            duration_ms=wall_s * 1000, cpu_ms=round(cpu_s * 1000, 3),
            counters=self.counters, **self.attributes,
        ))


def span(name: str, kind: str = "span",
         parent: Optional[Tuple[str, str]] = None, **attributes: Any):
    """Open a span (``with span("fault.sim", circuit="s953") as sp:``).

    ``parent`` (optional) is an explicit ``(trace_id, parent_span_id)``
    — a client's traceparent, or a context carried across a queue or a
    process — used instead of the active context.  Attributes named ``key``,
    ``status`` and ``links`` fill the record fields of those names.
    """
    if kind == "span" and not _ENABLED:
        return NULL_SPAN
    return _Span(name, kind, parent, attributes)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`span` (span named after the function)."""

    def decorate(func: Callable) -> Callable:
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(span_name):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def trace_enabled() -> bool:
    return _ENABLED


def enable_tracing() -> None:
    """Record pipeline spans too (the ``--trace`` CLI flag)."""
    global _ENABLED
    _ENABLED = True


def disable_tracing() -> None:
    global _ENABLED
    _ENABLED = False
