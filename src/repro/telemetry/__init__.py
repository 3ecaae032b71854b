"""Zero-dependency observability for the diagnosis pipeline.

Cooperating pieces (see docs/architecture.md, "Observability"):

* :mod:`repro.telemetry.tracer` — ``span()``: nested spans (wall/CPU
  time, attributes, counters) over the pipeline stages and serving
  tiers, each filed as one record in the flight recorder; pipeline spans
  are opt-in via ``REPRO_TRACE=1`` or :func:`enable_tracing`, free when
  disabled.
* :mod:`repro.telemetry.flightrec` — the span record shape, the bounded
  :data:`FLIGHT` ring that holds every record, trace context, and the
  tree assembler.
* :mod:`repro.telemetry.metrics` — the process-wide
  :class:`MetricsRegistry` that cache, fault simulator, session kernels
  and the server report into.
* :mod:`repro.telemetry.export` — stderr span tree, JSONL trace log, and
  the per-run ``manifest.json`` (git SHA, config hash, seed, env knobs,
  metric totals, span rollup).

Plus :func:`log`, the ``REPRO_LOG``-gated progress logger that keeps
stdout clean for actual experiment output.
"""

from .export import (
    ENV_KNOBS,
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_NAME,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    config_hash,
    git_sha,
    print_span_tree,
    read_trace_jsonl,
    render_span_tree,
    span_rollup,
    validate_manifest,
    write_manifest,
    write_trace_jsonl,
)
from .flightrec import (
    FLIGHT,
    FlightRecorder,
    assemble_tree,
    current_trace,
    current_trace_id,
    format_traceparent,
    make_record,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    trace_scope,
)
from .log import debug, log, log_level, set_log_level, warn_env_once
from .metrics import (
    METRICS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    metric_key,
    split_metric_key,
)
from .profiler import (
    PROFILER,
    ProfileData,
    SamplingProfiler,
    disable_profiling,
    enable_profiling,
    profile_enabled,
    resolve_profile_hz,
    write_profile_folded,
)
from .promexp import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .promexp import render_prometheus, sanitize_metric_name
from .tracer import (
    NULL_SPAN,
    active_span_name,
    disable_tracing,
    enable_tracing,
    span,
    trace_enabled,
    traced,
)

__all__ = [
    "ENV_KNOBS",
    "FLIGHT",
    "FlightRecorder",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_NAME",
    "MANIFEST_SCHEMA_VERSION",
    "METRICS",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "PROFILER",
    "PROMETHEUS_CONTENT_TYPE",
    "ProfileData",
    "SamplingProfiler",
    "active_span_name",
    "assemble_tree",
    "build_manifest",
    "config_hash",
    "current_trace",
    "current_trace_id",
    "debug",
    "disable_profiling",
    "disable_tracing",
    "enable_profiling",
    "enable_tracing",
    "format_traceparent",
    "git_sha",
    "log",
    "log_level",
    "make_record",
    "merge_snapshots",
    "metric_key",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "print_span_tree",
    "profile_enabled",
    "read_trace_jsonl",
    "render_prometheus",
    "render_span_tree",
    "resolve_profile_hz",
    "sanitize_metric_name",
    "set_log_level",
    "span",
    "span_rollup",
    "split_metric_key",
    "trace_enabled",
    "trace_scope",
    "traced",
    "validate_manifest",
    "warn_env_once",
    "write_manifest",
    "write_profile_folded",
    "write_trace_jsonl",
]
