"""``repro top`` — a refreshing terminal dashboard for a serving fleet.

Polls ``GET /metrics`` (JSON) plus ``GET /debug/requests`` on one
endpoint — a single :class:`~repro.service.server.DiagnosisServer` or a
cluster supervisor's control port (which answers the same two routes
with fleet-merged bodies) — and redraws a compact board every interval:

* throughput (requests/s from successive count deltas) and the request
  taxonomy (per-code counts, rejected, timeouts);
* latency quantiles (p50/p95/p99) per stage — the summary of the
  registry's ``service.request_seconds`` histogram, merged bucket-wise
  across workers on a cluster;
* queue depth / inflight, and on a cluster the per-worker table — state,
  pid, restarts, heartbeat age, per-worker rps, breaker state;
* the slowest and most recently failing requests from the flight
  recorder, with trace ids ready for ``GET /debug/trace/<id>``.

``--once`` renders a single board without clearing the screen (useful in
scripts and CI logs); everything it shows comes from the two public
endpoints, so the dashboard works against any reachable fleet.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from .client import ServiceClient, TransportError
from .protocol import ServiceError

#: Clear screen + home cursor (the refresh path; ``--once`` skips it).
ANSI_CLEAR = "\x1b[2J\x1b[H"


def _fmt(value: Any, pattern: str = "{:.1f}") -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "-"
    return pattern.format(value)


def _total_requests(metrics: Dict[str, Any]) -> int:
    return sum(int(v) for v in (metrics.get("requests") or {}).values())


def gather(client: ServiceClient) -> Dict[str, Any]:
    """One poll: /metrics always, /debug/requests best-effort."""
    sample: Dict[str, Any] = {"metrics": client.metrics()}
    try:
        sample["debug"] = client.debug_requests(limit=50)
    except (ServiceError, TransportError):
        sample["debug"] = None
    return sample


def slow_exemplars(debug: Any) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """(slow, errors) flight records from either endpoint shape.

    A single server answers the flight snapshot directly; the supervisor
    fan-out wraps per-worker snapshots under ``workers``.
    """
    if not isinstance(debug, dict):
        return [], []
    snaps = ([body for body in debug["workers"].values()
              if isinstance(body, dict)]
             if isinstance(debug.get("workers"), dict) else [debug])
    slow: List[Dict[str, Any]] = []
    errors: List[Dict[str, Any]] = []
    for snap in snaps:
        for records in (snap.get("slow") or {}).values():
            slow.extend(r for r in records if isinstance(r, dict))
        for records in (snap.get("errors") or {}).values():
            errors.extend(r for r in records if isinstance(r, dict))
    slow.sort(key=lambda r: r.get("duration_ms", 0.0), reverse=True)
    errors.sort(key=lambda r: r.get("start", 0.0), reverse=True)
    return slow, errors


def _exemplar_lines(title: str, records: List[Dict[str, Any]],
                    limit: int) -> List[str]:
    if not records:
        return []
    lines = [title]
    for record in records[:limit]:
        lines.append(
            f"  {record.get('trace_id', '?'):<32} "
            f"{_fmt(record.get('duration_ms'), '{:>9.1f}')}ms "
            f"{record.get('status', '?'):<17} {record.get('key', '?')}")
    return lines


def _worker_lines(metrics: Dict[str, Any],
                  prev: Optional[Dict[str, Any]],
                  elapsed: Optional[float]) -> List[str]:
    table = metrics.get("worker_table")
    if not isinstance(table, list) or not table:
        return []
    prev_counts: Dict[Any, int] = {}
    if prev and elapsed:
        for row in prev.get("worker_table") or []:
            prev_counts[row.get("slot")] = int(row.get("requests_total") or 0)
    lines = ["workers  slot state     pid      restarts uptime_s  hb_age  rps"]
    for row in table:
        rps = "-"
        total = row.get("requests_total")
        if (elapsed and isinstance(total, (int, float))
                and row.get("slot") in prev_counts):
            rps = f"{max(0, int(total) - prev_counts[row['slot']]) / elapsed:.1f}"
        state = row.get("state", "?")
        if state == "broken":
            state = "broken!"  # breaker open — the slot stays down
        lines.append(
            f"         {row.get('slot', '?'):<4} {state:<9} "
            f"{str(row.get('pid', '-')):<8} {row.get('restarts', 0):<8} "
            f"{_fmt(row.get('uptime_s'), '{:<9.1f}')}"
            f"{_fmt(row.get('heartbeat_age_s'), '{:<7.2f}')} {rps}")
    return lines


def render(sample: Dict[str, Any], prev: Optional[Dict[str, Any]],
           elapsed: Optional[float], limit: int, endpoint: str) -> str:
    metrics = sample["metrics"]
    lines: List[str] = []
    status = metrics.get("status", "?")
    uptime = _fmt(metrics.get("uptime_s"), "{:.0f}")
    rps = "-"
    if prev is not None and elapsed:
        delta = _total_requests(metrics) - _total_requests(prev["metrics"])
        rps = f"{max(0, delta) / elapsed:.1f}"
    lines.append(f"repro top — {endpoint}   status={status} "
                 f"uptime={uptime}s  rps={rps}")

    counts = metrics.get("requests") or {}
    taxonomy = " ".join(f"{code}={count}"
                        for code, count in sorted(counts.items())) or "(none)"
    shed = ""
    if "rejected" in metrics or "timeouts" in metrics:
        shed = (f"   rejected={metrics.get('rejected', 0)} "
                f"timeouts={metrics.get('timeouts', 0)}")
    lines.append(f"requests {taxonomy}{shed}")

    queue = metrics.get("queue")
    if isinstance(queue, dict):
        lines.append(f"queue    depth={queue.get('depth', '-')}"
                     f"/{queue.get('max_depth', '-')} "
                     f"inflight={queue.get('inflight', '-')}")

    latency = metrics.get("fleet_latency") or metrics.get("latency") or {}
    if latency:
        lines.append("latency  stage        count    p50_ms    p95_ms    p99_ms")
        for stage, summary in sorted(latency.items()):
            if not isinstance(summary, dict):
                continue
            lines.append(
                f"         {stage:<12} {summary.get('count', 0):<8} "
                f"{_fmt(summary.get('p50_ms'), '{:>8.1f}')}  "
                f"{_fmt(summary.get('p95_ms'), '{:>8.1f}')}  "
                f"{_fmt(summary.get('p99_ms'), '{:>8.1f}')}")

    lines.extend(_worker_lines(metrics, prev["metrics"] if prev else None,
                               elapsed))

    slow, errors = slow_exemplars(sample.get("debug"))
    lines.extend(_exemplar_lines(
        f"slowest traces (GET /debug/trace/<id>)", slow, limit))
    lines.extend(_exemplar_lines("recent errors", errors, limit))
    if sample.get("debug") is None:
        lines.append("(no /debug/requests endpoint — flight recorder "
                     "disabled or pre-observability server)")
    return "\n".join(lines) + "\n"


def top_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro top`` / ``repro-top``."""
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Refreshing dashboard over a serving endpoint's "
        "/metrics and /debug/requests (single server, or a cluster "
        "supervisor's control port for the fleet-merged view).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int,
                        default=int(os.environ.get("REPRO_SERVE_PORT", "")
                                    .strip() or 8953))
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh period in seconds (default 2)")
    parser.add_argument("--limit", type=int, default=8,
                        help="slow/error exemplar rows shown (default 8)")
    parser.add_argument("--once", action="store_true",
                        help="render one board and exit (no screen clears)")
    args = parser.parse_args(argv)

    endpoint = f"{args.host}:{args.port}"
    prev: Optional[Dict[str, Any]] = None
    prev_at: Optional[float] = None
    try:
        with ServiceClient(host=args.host, port=args.port,
                           timeout_s=max(5.0, args.interval)) as client:
            while True:
                try:
                    sample = gather(client)
                except (TransportError, ServiceError) as exc:
                    if args.once:
                        print(f"repro top: {endpoint}: {exc}", file=sys.stderr)
                        return 1
                    sys.stdout.write(ANSI_CLEAR +
                                     f"repro top: {endpoint}: {exc}\n")
                    sys.stdout.flush()
                    time.sleep(args.interval)
                    continue
                now = time.monotonic()
                board = render(sample, prev,
                               now - prev_at if prev_at else None,
                               args.limit, endpoint)
                if args.once:
                    sys.stdout.write(board)
                    return 0
                sys.stdout.write(ANSI_CLEAR + board)
                sys.stdout.flush()
                prev, prev_at = sample, now
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
