"""Level-gated progress logging for the CLI and scripts.

Progress/status chatter ("benchmarking s953 ...") goes through
:func:`log` instead of bare ``print`` so it can be silenced wholesale:
``REPRO_LOG=quiet|info|debug`` (default ``info``) sets the verbosity, and
everything writes to **stderr** — stdout stays reserved for the actual
deliverables (rendered tables, DR numbers) that tests and shell pipelines
consume.  The test suite runs with ``REPRO_LOG=quiet``.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Optional, Set, TextIO, Tuple

LEVELS = {"quiet": 0, "info": 1, "debug": 2}

#: Env values already warned about, so a misconfigured knob logs once per
#: process instead of once per call into the hot path.
_WARNED_ENV: Set[Tuple[str, str]] = set()

#: Programmatic override (the CLI may set this); None defers to the env.
_FORCED_LEVEL: Optional[str] = None

#: Callable returning the active request trace id (or None); installed by
#: :mod:`repro.telemetry.flightrec`, which sits above us in the import
#: graph.  When a trace context is active every log line is prefixed
#: ``[trace_id]`` so fleet stderr can be grepped per request.
_TRACE_ID_PROVIDER = None


def set_trace_id_provider(provider) -> None:
    global _TRACE_ID_PROVIDER
    _TRACE_ID_PROVIDER = provider


def log_level() -> str:
    """Active verbosity name (``quiet`` / ``info`` / ``debug``)."""
    if _FORCED_LEVEL is not None:
        return _FORCED_LEVEL
    raw = os.environ.get("REPRO_LOG", "info").strip().lower()
    return raw if raw in LEVELS else "info"


def set_log_level(level: Optional[str]) -> None:
    """Force a verbosity regardless of ``REPRO_LOG`` (``None`` to defer)."""
    global _FORCED_LEVEL
    if level is not None and level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; use {sorted(LEVELS)}")
    _FORCED_LEVEL = level


def log(message: Any, level: str = "info", stream: Optional[TextIO] = None) -> None:
    """Emit one progress line if the active verbosity admits ``level``."""
    if LEVELS.get(level, 1) > LEVELS[log_level()]:
        return
    if _TRACE_ID_PROVIDER is not None:
        trace_id = _TRACE_ID_PROVIDER()
        if trace_id:
            message = f"[{trace_id}] {message}"
    print(message, file=stream if stream is not None else sys.stderr, flush=True)


def debug(message: Any) -> None:
    log(message, level="debug")


def warn_env_once(knob: str, raw: str, fallback: str) -> None:
    """One-time ``REPRO_LOG`` warning for an unparseable env knob.

    Silent fallbacks hide typos (``REPRO_TRACE=of``, ``REPRO_PROFILE_HZ=fast``)
    until someone audits a benchmark; naming the bad value once per process
    surfaces them without spamming hot loops.  Shared by every knob reader
    (:mod:`repro.telemetry.tracer`, :mod:`repro.telemetry.flightrec`,
    :mod:`repro.telemetry.profiler`).
    """
    token = (knob, raw)
    if token in _WARNED_ENV:
        return
    _WARNED_ENV.add(token)
    log(f"warning: {knob}={raw!r} is not a valid setting; {fallback}")
