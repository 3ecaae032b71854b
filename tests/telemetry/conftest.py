"""Telemetry tests share the process-wide recorder/registry — isolate them."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    FLIGHT,
    METRICS,
    PROFILER,
    disable_tracing,
    enable_tracing,
    trace_enabled,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Reset the flight recorder, registry and profiler samples around
    every test, and restore the tracing flag (other test modules must keep
    seeing the default)."""
    was_enabled = trace_enabled()
    FLIGHT.reset()
    yield
    (enable_tracing if was_enabled else disable_tracing)()
    FLIGHT.reset()
    METRICS.reset()
    PROFILER.stop()
    PROFILER.data.clear()
