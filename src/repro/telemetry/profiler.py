"""Statistical sampling profiler with tracer-span attribution.

The span tree (:mod:`repro.telemetry.tracer`) answers *which stage* was
slow; it cannot answer *where inside the stage* the time went — three
generations of numpy kernels shift their relative hotness with circuit
size and env knobs, and eyeballing ``cProfile`` runs does not survive CI.
This module closes that gap with the standard production technique: a
**statistical sampler** that interrupts the process ``REPRO_PROFILE_HZ``
times per CPU-second (default 97 — prime, so it cannot phase-lock with
periodic work), snapshots the Python stack, and folds each snapshot into
collapsed-stack form::

    span:experiment:table1;repro.cli:experiment_main;...;numpy:reduce 42

* The synthetic root frame names the **tracer span open in the sampled
  thread** (via :func:`repro.telemetry.tracer.active_span_name`), so one
  folded file carries both the stage attribution and the stack — and
  ``repro stats`` can print per-span self/cumulative hot-function tables.
* The file (``profile.folded``) is directly consumable by ``flamegraph.pl``
  and speedscope.

Two sampling backends, picked automatically:

* ``sigprof`` — ``signal.setitimer(ITIMER_PROF)`` + a ``SIGPROF`` handler;
  samples CPU time, costs nothing while blocked, and sees the interrupted
  frame directly.  Requires the main thread of a Unix process.
* ``thread`` — a daemon thread that wakes at the sampling interval and
  walks ``sys._current_frames()``; wall-clock sampling of *all* threads,
  used where ``SIGPROF`` is unavailable (Windows, non-main threads — e.g.
  the service's executor threads).

Profiling is **opt-in** (``REPRO_PROFILE=1`` or the ``--profile`` CLI
flag); when off nothing is installed and the pipeline cost is zero.  At
the default 97 Hz the sampler's own cost is bounded by ~100 cheap handler
invocations per CPU-second (<5% — measured and recorded in the bench
trajectory report).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Dict, List, Optional, Union

from .log import warn_env_once
from .tracer import active_span_name

#: Default sampling rate; prime so the sampler cannot phase-lock with
#: periodic pipeline work (batch loops, timer wheels).
DEFAULT_HZ = 97

#: Deepest stack recorded per sample; frames beyond it are dropped from
#: the root end (the leaf — where the time is spent — always survives).
MAX_STACK_DEPTH = 128

#: Root-frame prefix marking the tracer-span attribution of a sample.
SPAN_PREFIX = "span:"

#: Span label for samples taken outside any open span (tracing off, or
#: genuinely between stages).
NO_SPAN = "(no span)"

_PROFILE_ON = ("1", "true", "on", "yes")
_PROFILE_OFF = ("", "0", "false", "off", "no")


def profile_enabled() -> bool:
    """Resolve ``REPRO_PROFILE`` (default off; unparseable warns once)."""
    raw = os.environ.get("REPRO_PROFILE", "").strip().lower()
    if raw in _PROFILE_ON:
        return True
    if raw not in _PROFILE_OFF:
        warn_env_once("REPRO_PROFILE", raw, "keeping the profiler disabled")
    return False


def resolve_profile_hz(hz: Optional[Union[int, float]] = None) -> int:
    """Sampling rate: explicit argument, else ``REPRO_PROFILE_HZ``, else
    :data:`DEFAULT_HZ`.  Unparseable or non-positive values warn once and
    keep the default."""
    if hz is not None:
        return max(1, int(hz))
    raw = os.environ.get("REPRO_PROFILE_HZ", "").strip()
    if not raw:
        return DEFAULT_HZ
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        warn_env_once("REPRO_PROFILE_HZ", raw,
                      f"keeping the default {DEFAULT_HZ} Hz")
        return DEFAULT_HZ
    return value


#: Frame label cache keyed by code object — the sampler labels the same
#: code thousands of times, and building the string is the expensive part.
_FRAME_LABELS: Dict[CodeType, str] = {}


def _frame_label(frame: FrameType) -> str:
    code = frame.f_code
    label = _FRAME_LABELS.get(code)
    if label is None:
        module = frame.f_globals.get("__name__", "?")
        name = getattr(code, "co_qualname", None) or code.co_name
        # Collapsed-stack format is whitespace/semicolon-delimited.
        label = f"{module}:{name}".replace(";", ",").replace(" ", "_")
        _FRAME_LABELS[code] = label
    return label


def _fold_stack(frame: Optional[FrameType], span: Optional[str]) -> str:
    """One sampled frame chain -> ``span:...;root;...;leaf`` key."""
    parts: List[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        parts.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    parts.append(SPAN_PREFIX + (span or NO_SPAN).replace(";", ",").replace(" ", "_"))
    parts.reverse()
    return ";".join(parts)


class ProfileData:
    """Folded-stack sample counts."""

    __slots__ = ("samples", "dropped")

    def __init__(self) -> None:
        self.samples: Dict[str, int] = {}
        self.dropped = 0

    def record(self, key: str) -> None:
        self.samples[key] = self.samples.get(key, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.samples.values())

    def clear(self) -> None:
        self.samples.clear()
        self.dropped = 0

    # -- reading -------------------------------------------------------------

    def folded_lines(self) -> List[str]:
        """``stack count`` lines (flamegraph.pl / speedscope collapsed
        format), stably sorted by stack."""
        return [f"{key} {count}" for key, count in sorted(self.samples.items())]

    def span_table(self, top_functions: int = 10) -> List[Dict[str, Any]]:
        """Per-span hot-function rollup for manifests and ``repro stats``.

        For every tracer span seen at sampling time: total samples, plus
        the ``top_functions`` hottest functions by **self** samples (the
        sample's leaf frame) with their cumulative counts (frame anywhere
        on the stack) alongside.
        """
        spans: Dict[str, Dict[str, Any]] = {}
        for key, count in self.samples.items():
            frames = key.split(";")
            span = frames[0][len(SPAN_PREFIX):] if frames[0].startswith(
                SPAN_PREFIX) else NO_SPAN
            frames = frames[1:] or ["(unknown)"]
            entry = spans.setdefault(
                span, {"span": span, "samples": 0, "functions": {}})
            entry["samples"] += count
            funcs = entry["functions"]
            for frame in set(frames):
                row = funcs.setdefault(frame, {"function": frame,
                                               "self": 0, "cum": 0})
                row["cum"] += count
            funcs[frames[-1]]["self"] += count
        table = []
        for entry in sorted(spans.values(), key=lambda e: e["samples"],
                            reverse=True):
            functions = sorted(
                entry["functions"].values(),
                key=lambda r: (r["self"], r["cum"]), reverse=True,
            )[:top_functions]
            table.append({
                "span": entry["span"],
                "samples": entry["samples"],
                "functions": functions,
            })
        return table


class SamplingProfiler:
    """Owns the sampling backend and the accumulated :class:`ProfileData`.

    One process-wide instance (:data:`PROFILER`) serves the pipeline; the
    bench harness builds private instances to measure overhead without
    polluting the global sample pool.
    """

    def __init__(self, hz: Optional[int] = None):
        self.hz = resolve_profile_hz(hz)
        self.data = ProfileData()
        self.mode: Optional[str] = None          # active backend, or None
        self.last_mode: Optional[str] = None     # survives stop() for reports
        self._owner_pid: Optional[int] = None
        self._prev_handler: Any = None
        self._stop_event: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Sampling in *this* process right now (fork-aware)."""
        return self.mode is not None and self._owner_pid == os.getpid()

    def start(self, hz: Optional[int] = None) -> Optional[str]:
        """Begin sampling; returns the backend name (``sigprof`` or
        ``thread``), or the running backend when already active."""
        if self.active:
            return self.mode
        if hz is not None:
            self.hz = resolve_profile_hz(hz)
        self._owner_pid = os.getpid()
        interval = 1.0 / self.hz
        if self._sigprof_available():
            self._prev_handler = signal.signal(signal.SIGPROF, self._on_sigprof)
            signal.setitimer(signal.ITIMER_PROF, interval, interval)
            self.mode = "sigprof"
        else:
            self._stop_event = threading.Event()
            self._thread = threading.Thread(
                target=self._thread_loop, args=(interval,),
                name="repro-profiler", daemon=True,
            )
            self._thread.start()
            self.mode = "thread"
        self.last_mode = self.mode
        return self.mode

    def stop(self) -> None:
        """Stop sampling (samples already collected are kept)."""
        if self.mode is None:
            return
        if self._owner_pid != os.getpid():
            # Forked copy of an active parent: nothing is running here.
            self.mode = None
            return
        if self.mode == "sigprof":
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            try:
                signal.signal(signal.SIGPROF, self._prev_handler or signal.SIG_DFL)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
            self._prev_handler = None
        else:
            assert self._stop_event is not None
            self._stop_event.set()
            if self._thread is not None:
                self._thread.join(timeout=2.0)
            self._thread = None
            self._stop_event = None
        self.mode = None

    @staticmethod
    def _sigprof_available() -> bool:
        return (
            hasattr(signal, "setitimer")
            and hasattr(signal, "SIGPROF")
            and threading.current_thread() is threading.main_thread()
        )

    # -- sampling ------------------------------------------------------------

    def _on_sigprof(self, signum: int, frame: Optional[FrameType]) -> None:
        # The handler runs in the main thread over the interrupted frame.
        try:
            self.data.record(
                _fold_stack(frame, active_span_name(threading.get_ident()))
            )
        except Exception:  # noqa: BLE001 - a sample must never kill the host
            self.data.dropped += 1

    def _thread_loop(self, interval: float) -> None:
        me = threading.get_ident()
        stop = self._stop_event
        assert stop is not None
        while not stop.wait(interval):
            try:
                for ident, frame in sys._current_frames().items():
                    if ident == me:
                        continue
                    self.data.record(_fold_stack(frame, active_span_name(ident)))
            except Exception:  # noqa: BLE001 - a sample must never kill the host
                self.data.dropped += 1

    # -- reporting -----------------------------------------------------------

    def manifest_record(self, top_functions: int = 10) -> Dict[str, Any]:
        """The ``profile`` section of the run manifest (schema v3).

        Always present so v3 manifests are uniform; ``enabled`` records
        whether the profiler ever ran in this process.
        """
        total = self.data.total
        record: Dict[str, Any] = {
            "enabled": bool(self.last_mode) or total > 0,
            "mode": self.last_mode,
            "hz": self.hz if self.last_mode else None,
            "samples": total,
            "dropped": self.data.dropped,
            "spans": self.data.span_table(top_functions) if total else [],
        }
        return record


#: Process-wide profiler used by the CLI, the server and exporters.
PROFILER = SamplingProfiler()


def enable_profiling(hz: Optional[int] = None) -> Optional[str]:
    """Turn sampling on (the ``--profile`` CLI flag); returns the backend."""
    return PROFILER.start(hz=hz)


def disable_profiling() -> None:
    PROFILER.stop()


def write_profile_folded(
    path: Union[str, Path], data: Optional[ProfileData] = None
) -> Path:
    """Write the collapsed-stack profile (``flamegraph.pl``-ready)."""
    data = PROFILER.data if data is None else data
    path = Path(path)
    lines = data.folded_lines()
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path
