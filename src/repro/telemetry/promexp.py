"""Prometheus text-exposition rendering over the telemetry registry.

The service's ``GET /metrics`` JSON snapshot is convenient for humans and
the loadgen, but standard scrape tooling (Prometheus, the Grafana agent,
victoriametrics) speaks the text exposition format — one
``name{labels} value`` sample per line with ``# TYPE`` metadata.  This
module renders that format with zero dependencies from the pieces the
pipeline already maintains:

* :class:`repro.telemetry.metrics.MetricsRegistry` counters become
  ``<ns>_<name>_total`` counter samples; gauges map 1:1; histograms
  become real Prometheus **histograms** — cumulative ``_bucket{le=...}``
  series over the registry's log buckets, closed by ``le="+Inf"`` at the
  total count, plus ``_sum``/``_count``.  Labels ride along, so the
  service's ``service.request_seconds{stage=...}`` family renders as
  ``repro_service_request_seconds{stage="total"}`` and so on.

Metric names are derived mechanically: dots to underscores, everything
else non-alphanumeric folded to ``_``, ``repro_`` namespace prefix.
Label keys/values come straight from
:func:`repro.telemetry.metrics.split_metric_key`, values escaped per the
exposition spec (backslash, double-quote, newline).

The service serves this via content negotiation on ``GET /metrics``
(``?format=prometheus`` or ``Accept: text/plain``); JSON stays the
default so existing consumers never notice.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from .metrics import METRICS, cumulative_buckets, split_metric_key

#: Content type Prometheus scrapers expect for the text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str, namespace: str = "repro") -> str:
    """Fold a dotted registry name into a legal Prometheus metric name."""
    flat = _NAME_BAD_CHARS.sub("_", name.replace(".", "_"))
    if namespace:
        flat = f"{namespace}_{flat}"
    if not _NAME_OK.match(flat):  # leading digit or empty after folding
        flat = "_" + flat
    return flat


def _sanitize_label_name(name: str) -> str:
    flat = _LABEL_BAD_CHARS.sub("_", name)
    return flat if flat and not flat[0].isdigit() else "_" + flat


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _fmt_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize_label_name(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: Any) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _grouped(samples: Dict[str, Any]) -> Dict[str, List[Tuple[Dict[str, Any], Any]]]:
    """Registry keys -> ``{base_name: [(labels, value), ...]}`` so the
    ``# TYPE`` header is emitted once per metric family."""
    families: Dict[str, List[Tuple[Dict[str, Any], Any]]] = {}
    for key in sorted(samples):
        name, labels = split_metric_key(key)
        families.setdefault(name, []).append((labels, samples[key]))
    return families


def render_prometheus(
    snapshot: Optional[Dict[str, Any]] = None,
    namespace: str = "repro",
) -> str:
    """Render one scrape body (``snapshot`` defaults to the live
    :data:`METRICS` registry)."""
    snapshot = METRICS.snapshot() if snapshot is None else snapshot
    lines: List[str] = []

    for name, samples in _grouped(snapshot.get("counters", {})).items():
        metric = sanitize_metric_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        for labels, value in samples:
            lines.append(f"{metric}{_fmt_labels(labels)} {_fmt_value(value)}")

    for name, samples in _grouped(snapshot.get("gauges", {})).items():
        metric = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        for labels, value in samples:
            lines.append(f"{metric}{_fmt_labels(labels)} {_fmt_value(value)}")

    for name, samples in _grouped(snapshot.get("histograms", {})).items():
        metric = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {metric} histogram")
        for labels, hist in samples:
            for upper, cum in cumulative_buckets(hist):
                le = _fmt_labels({**labels, "le": f"{upper:.9g}"})
                lines.append(f"{metric}_bucket{le} {cum}")
            count = _fmt_value(hist.get("count", 0))
            inf = _fmt_labels({**labels, "le": "+Inf"})
            lines.append(f"{metric}_bucket{inf} {count}")
            label_str = _fmt_labels(labels)
            lines.append(f"{metric}_sum{label_str} "
                         f"{_fmt_value(hist.get('sum', 0.0))}")
            lines.append(f"{metric}_count{label_str} {count}")

    return "\n".join(lines) + "\n"
