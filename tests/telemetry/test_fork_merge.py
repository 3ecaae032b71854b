"""Telemetry across forked workers: metric deltas and span records."""

from __future__ import annotations

import pytest

from repro.parallel import fork_available, parallel_map
from repro.telemetry import FLIGHT, METRICS, enable_tracing, span, trace_enabled

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _task(i: int) -> int:
    METRICS.incr("forktest.calls")
    METRICS.incr("forktest.value", i)
    with span("forktest.stage") as sp:
        sp.add("items", 1)
    return i * i


def _spin_task(i: int) -> int:
    """CPU-bound enough for a 400 Hz sampler to catch inside a worker."""
    import time

    deadline = time.perf_counter() + 0.05
    acc = i
    while time.perf_counter() < deadline:
        acc = (acc * 1103515245 + 12345) % (1 << 31)
    return acc % 7


@needs_fork
class TestForkMerge:
    def test_metrics_merge_across_workers(self):
        before = METRICS.counter("forktest.calls")
        results = parallel_map(_task, 16, workers=2, min_items=2)
        assert results == [i * i for i in range(16)]
        assert METRICS.counter("forktest.calls") - before == 16
        assert METRICS.counter_total("pool.tasks") >= 16

    def test_pool_metrics_recorded(self):
        parallel_map(_task, 12, workers=2, min_items=2)
        snap = METRICS.snapshot()
        assert snap["histograms"]["pool.chunk_size"]["count"] >= 1
        assert snap["gauges"]["pool.workers_seen"] >= 1
        assert 0 < snap["gauges"]["pool.utilization"] <= 1.5

    def test_worker_spans_adopted_under_pool_map(self):
        enable_tracing()
        with span("driver") as driver:
            parallel_map(_task, 10, workers=2, min_items=2)
        records = FLIGHT.since()
        (pool_map,) = [r for r in records if r["name"] == "pool.map"]
        assert pool_map["parent_id"] == driver.span_id
        chunks = {r["span_id"]: r for r in records
                  if r["name"] == "pool.chunk"}
        assert chunks and all(c["parent_id"] == pool_map["span_id"]
                              for c in chunks.values())
        assert any(c["pid"] != pool_map["pid"] for c in chunks.values())
        worker_spans = [r for r in records if r["name"] == "forktest.stage"]
        assert len(worker_spans) == 10
        assert all(s["parent_id"] in chunks for s in worker_spans)
        assert sum(s["counters"].get("items", 0) for s in worker_spans) == 10
        assert {r["trace_id"] for r in records} == {driver.trace_id}

    def test_serial_path_identical_results(self):
        serial = parallel_map(_task, 9, workers=0)
        forked = parallel_map(_task, 9, workers=2, min_items=2)
        assert serial == forked

    def test_profile_samples_merge_from_workers(self):
        from repro.telemetry import PROFILER

        PROFILER.data.clear()
        PROFILER.start(hz=400)
        try:
            parallel_map(_spin_task, 8, workers=2, min_items=2)
        finally:
            PROFILER.stop()
        # Workers resume sampling after the fork and ship their deltas
        # back through the chunk payload; the parent pool must now hold
        # stacks recorded inside the forked children's task code.
        assert PROFILER.data.total > 0
        assert any("_spin_task" in key for key in PROFILER.data.samples), (
            sorted(PROFILER.data.samples)
        )

    def test_inactive_profiler_ships_no_profile_payload(self):
        from repro.telemetry import PROFILER

        PROFILER.data.clear()
        parallel_map(_spin_task, 8, workers=2, min_items=2)
        assert PROFILER.data.total == 0


class TestSerialFallback:
    def test_small_population_never_forks(self):
        before = METRICS.counter_total("pool.tasks")
        results = parallel_map(lambda i: i, 3, workers=4)
        assert results == [0, 1, 2]
        assert METRICS.counter_total("pool.tasks") == before

    def test_disabled_tracing_adds_no_spans(self):
        assert not trace_enabled()
        parallel_map(_task, 4, workers=0)
        parallel_map(_task, 12, workers=2, min_items=2)
        assert FLIGHT.since() == []
