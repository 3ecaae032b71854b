"""Opt-in fork-based worker pool for embarrassingly parallel populations.

Faults are independent of each other and so are the per-fault diagnosis
runs, so both :meth:`repro.sim.faultsim.FaultSimulator.simulate_faults` and
:func:`repro.experiments.runner.evaluate_scheme` can fan their population
out over processes.  The pool is **opt-in** (``workers`` argument, or the
``REPRO_WORKERS`` environment variable; default 0 = serial) and falls back
to the serial loop whenever forking is unavailable (Windows, exotic
interpreters) or the population is too small to amortize the fork.

The task callable is handed to children by **fork inheritance**: the parent
parks it in a module global, forks the pool, and submits plain index
chunks — nothing but small index lists and the results ever cross the
pipe.  Chunks are contiguous and reassembled in index order, so results are
bit-identical to the serial path.

Telemetry crosses the fork boundary explicitly (a forked child's counters
and span records live in *its* copy of the process): each chunk snapshots
the :data:`repro.telemetry.METRICS` registry before and after the work
and ships the delta — plus the span records it filed, read off the
flight recorder's ``recorded`` counter — back with the results; the
parent folds deltas into its registry and files the records in its own
recorder.  Worker spans keep the parentage they were given in the child
(``pool.chunk`` under ``pool.map``).  The pool itself reports ``pool.*``
metrics: chunks and tasks per worker process, chunk sizes, per-chunk busy
time, and (when tracing) result payload bytes and pickling time.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .telemetry import (
    FLIGHT,
    METRICS,
    PROFILER,
    current_trace,
    span,
    trace_enabled,
)

#: Populations smaller than this never fork (the pool costs more than it saves).
MIN_PARALLEL_ITEMS = 8

#: Target number of chunks per worker (load balancing without tiny tasks).
CHUNKS_PER_WORKER = 4


class Codec(NamedTuple):
    """Optional chunk-result transport codec for :func:`parallel_map`.

    ``encode`` runs in the forked child over the chunk's result list and
    returns a compact wire value (typically a dict of flat numpy arrays —
    one buffer copy to pickle instead of thousands of small objects);
    ``decode`` runs in the parent and must return the original result
    list.  ``nbytes`` (optional) estimates the wire size of an encoded
    value for the ``pool.transport_bytes`` counter without an extra
    pickling pass.  Round-tripping must be lossless: serial and forked
    results stay bit-identical.
    """

    encode: Callable[[List[Any]], Any]
    decode: Callable[[Any], List[Any]]
    nbytes: Optional[Callable[[Any], int]] = None


_ACTIVE_TASK: Optional[Callable[[int], Any]] = None
_ACTIVE_CODEC: Optional[Codec] = None
#: ``(trace_id, span_id)`` of the ``pool.map`` span (or of the request's
#: batch span when tracing is off).  A contextvar cannot carry this into
#: the forked child's worker (the executor runs chunks outside the
#: submitting context), so it rides the same fork-inheritance path as the
#: task.
_ACTIVE_TRACE: Optional[Tuple[str, str]] = None


def fork_available() -> bool:
    """True when a fork-based pool can run (never on Windows)."""
    if sys.platform == "win32":
        return False
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalize a worker request.

    ``None`` reads ``REPRO_WORKERS`` (default 0 = serial); any negative
    value means "all cores".  The result is the worker count to use, where
    0 and 1 both mean the serial loop.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        workers = int(raw) if raw else 0
    if workers < 0:
        workers = os.cpu_count() or 1
    return workers


def _run_chunk(indices: Sequence[int]) -> Tuple[List[Any], Dict[str, Any]]:
    """Execute one index chunk in a worker and package its telemetry.

    Runs in the forked child.  The returned payload is the fork-merge
    protocol: metric deltas (registry activity during this chunk only —
    the worker may serve many chunks), the span records the chunk filed,
    the worker pid, and the chunk's busy wall time.  The chunk is a
    ``pool.chunk`` span whenever the pool runs under a trace context.
    """
    assert _ACTIVE_TASK is not None, "worker forked outside parallel_map"
    before = METRICS.snapshot()
    mark = FLIGHT.recorded
    # A parent that was profiling at fork time needs its sampler restarted
    # here (interval timers and sampler threads die with the fork); the
    # chunk's sample delta rides back with the metric delta below.
    profile_before = (
        PROFILER.data.snapshot() if PROFILER.resume_after_fork() else None
    )
    started = time.perf_counter()
    if _ACTIVE_TRACE is None:
        results = [_ACTIVE_TASK(i) for i in indices]
    else:
        with span("pool.chunk", kind="chunk", parent=_ACTIVE_TRACE,
                  tasks=len(indices)):
            results = [_ACTIVE_TASK(i) for i in indices]
    busy_s = time.perf_counter() - started
    payload: Dict[str, Any] = {
        "pid": os.getpid(),
        "busy_s": busy_s,
        "tasks": len(indices),
        "metrics": METRICS.diff(before),
        "spans": FLIGHT.since(mark),
    }
    if profile_before is not None:
        payload["profile"] = PROFILER.data.diff(profile_before)
    if _ACTIVE_CODEC is not None:
        results = _ACTIVE_CODEC.encode(results)
        if _ACTIVE_CODEC.nbytes is not None:
            payload["transport_bytes"] = _ACTIVE_CODEC.nbytes(results)
    if trace_enabled():
        # Serialization cost of the results themselves (the executor will
        # pickle them again for the pipe; measuring here costs one extra
        # dumps pass, which is why it is trace-gated).
        t0 = time.perf_counter()
        payload["result_bytes"] = len(pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL))
        payload["pickle_s"] = time.perf_counter() - t0
    return results, payload


def _chunk_indices(num_items: int, workers: int) -> List[List[int]]:
    num_chunks = min(num_items, workers * CHUNKS_PER_WORKER)
    base = num_items // num_chunks
    extra = num_items % num_chunks
    chunks = []
    start = 0
    for c in range(num_chunks):
        size = base + (1 if c < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


def _absorb_payloads(payloads: Sequence[Dict[str, Any]], wall_s: float) -> None:
    """Fold the workers' telemetry back into the parent process."""
    worker_index: Dict[int, int] = {}
    busy_total = 0.0
    for payload in payloads:
        METRICS.merge(payload.get("metrics"))
        FLIGHT.record_many(payload.get("spans", ()))
        PROFILER.data.merge(payload.get("profile"))
        pid = payload.get("pid")
        if pid not in worker_index:
            # Stable worker labels (pids vary run to run, enumeration
            # order of first completion does too, but the label space
            # stays small and mergeable).
            worker_index[pid] = len(worker_index)
        label = {"worker": worker_index[pid]}
        METRICS.incr("pool.chunks", 1, labels=label)
        METRICS.incr("pool.tasks", payload.get("tasks", 0), labels=label)
        METRICS.observe("pool.chunk_size", payload.get("tasks", 0))
        METRICS.observe("pool.chunk_busy_s", payload.get("busy_s", 0.0))
        busy_total += payload.get("busy_s", 0.0)
        if "transport_bytes" in payload:
            METRICS.incr("pool.transport_bytes", payload["transport_bytes"])
        if "result_bytes" in payload:
            METRICS.incr("pool.result_bytes", payload["result_bytes"])
            METRICS.incr("pool.pickle_s", payload["pickle_s"])
    METRICS.gauge("pool.workers_seen", len(worker_index))
    METRICS.observe("pool.map_wall_s", wall_s)
    if wall_s > 0:
        # Utilization: total worker busy time over (wall x workers) — 1.0
        # means every worker computed the whole time.
        workers = max(1, len(worker_index))
        METRICS.gauge("pool.utilization", busy_total / (wall_s * workers))


def parallel_map(
    task: Callable[[int], Any],
    num_items: int,
    workers: Optional[int] = None,
    min_items: int = MIN_PARALLEL_ITEMS,
    codec: Optional[Codec] = None,
) -> List[Any]:
    """``[task(0), task(1), ..., task(num_items-1)]``, possibly forked.

    Order (and therefore every downstream number) is identical to the
    serial loop regardless of the worker count.  ``codec`` (optional)
    compacts each chunk's results for the trip back through the pipe —
    encode in the child, decode in the parent, lossless by contract; the
    serial path never touches it.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or num_items < max(min_items, 2) or not fork_available():
        return [task(i) for i in range(num_items)]
    global _ACTIVE_TASK, _ACTIVE_CODEC, _ACTIVE_TRACE
    if _ACTIVE_TASK is not None:
        # Nested parallelism: the inner level runs serially.
        return [task(i) for i in range(num_items)]
    workers = min(workers, num_items)
    context = multiprocessing.get_context("fork")
    _ACTIVE_TASK = task
    _ACTIVE_CODEC = codec
    chunks = _chunk_indices(num_items, workers)
    started = time.perf_counter()
    try:
        with span("pool.map", items=num_items, workers=workers, chunks=len(chunks)):
            _ACTIVE_TRACE = current_trace()
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                chunk_results = list(pool.map(_run_chunk, chunks))
            _absorb_payloads(
                [payload for _, payload in chunk_results],
                time.perf_counter() - started,
            )
    finally:
        _ACTIVE_TASK = None
        _ACTIVE_CODEC = None
        _ACTIVE_TRACE = None
    return [
        result
        for results, _ in chunk_results
        for result in (codec.decode(results) if codec is not None else results)
    ]
