#!/usr/bin/env python
"""Open-loop load generator for the diagnosis service.

Drives ``POST /diagnose`` with a configurable request rate (``--rps``;
0 = closed-loop, as fast as ``--concurrency`` in-flight requests allow),
collects exact client-side latencies, and writes a machine-readable
report (default ``loadgen.json``) with throughput, p50/p95/p99 latency,
per-code outcome counts and — when ``--baseline N`` is given — the
measured speedup over ``N`` sequential one-shot CLI invocations (each of
which re-pays interpreter start-up, netlist compile and golden
simulation; the service pays them once).  ``--duration S`` switches from
a fixed request count to a fixed wall-clock window.

``--spawn`` makes the run self-contained: start a server subprocess, wait
for ``/healthz``, apply the load, validate ``/metrics`` (well-formed JSON
with queue/batching/latency sections, and a Prometheus scrape whose
``repro_service_request_seconds`` family is a well-formed histogram per
stage), then SIGTERM it and record whether it drained and exited cleanly
— exactly the sequence the CI smoke job runs.  On a cluster the fleet
counters are heartbeat-fed, so the check polls the control port until
they cover every ok reply loadgen saw (up to 3 heartbeat intervals).
``--workers N`` spawns the prefork cluster instead of a single process,
and ``--kill-one-at F`` injects chaos: at fraction F of the run
one worker is ``kill -9``'d and the report records whether the supervisor
respawned it (requests ride out the kill via transport retries).
``--verify`` additionally checks determinism: every reply for a given
fault index must be bit-identical across the run *and* equal to the
direct in-process ``core.diagnosis`` result.

Run:  PYTHONPATH=src python scripts/loadgen.py --requests 200
          [--duration S] [--rps 0] [--concurrency 200] [--circuit s953]
          [--spawn] [--workers 4] [--kill-one-at 0.4]
          [--baseline 5] [--verify] [--fail-on-5xx] [--out loadgen.json]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.client import ServiceClient, TransportError  # noqa: E402
from repro.service.protocol import ServiceError  # noqa: E402
from repro.telemetry import new_trace_id  # noqa: E402


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="server port (default REPRO_SERVE_PORT or 8953; "
                        "--spawn picks a free port automatically)")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--duration", type=float, default=None, metavar="S",
                        help="run for S seconds of wall clock instead of a "
                        "fixed --requests count")
    parser.add_argument("--rps", type=float, default=0.0,
                        help="open-loop arrival rate; 0 = closed loop")
    parser.add_argument("--concurrency", type=int, default=200,
                        help="max in-flight requests (worker threads)")
    parser.add_argument("--circuit", default="s953")
    parser.add_argument("--scheme", default="two-step")
    parser.add_argument("--fault-count", type=int, default=20)
    parser.add_argument("--patterns", type=int, default=128)
    parser.add_argument("--timeout-ms", type=float, default=30000.0)
    parser.add_argument("--baseline", type=int, default=0, metavar="N",
                        help="also time N sequential one-shot CLI runs")
    parser.add_argument("--spawn", action="store_true",
                        help="start/SIGTERM a server subprocess around the run")
    parser.add_argument("--verify", action="store_true",
                        help="check replies are deterministic and match the "
                        "direct core.diagnosis path")
    parser.add_argument("--fail-on-5xx", action="store_true",
                        help="exit 1 on any 5xx / dropped response")
    parser.add_argument("--batch-max", type=int, default=None)
    parser.add_argument("--queue-depth", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1,
                        help="with --spawn: server processes; >1 spawns the "
                        "prefork cluster (serve --workers N)")
    parser.add_argument("--heartbeat-s", type=float, default=0.25,
                        help="cluster worker heartbeat interval (default "
                        "0.25 for fast failure detection in smoke runs)")
    parser.add_argument("--kill-one-at", type=float, default=None,
                        metavar="FRAC",
                        help="chaos: kill -9 one cluster worker once FRAC of "
                        "the run has completed (0..1); requires --spawn and "
                        "--workers > 1")
    parser.add_argument("--retries", type=int, default=None,
                        help="client retries per request on transport errors "
                        "(default 2 under --kill-one-at, else 0)")
    parser.add_argument("--trace", action="store_true",
                        help="mint a client trace id per request (sent as a "
                        "traceparent header) and record the ids in the "
                        "report — feed them to GET /debug/trace/<id>")
    parser.add_argument("--out", default="loadgen.json")
    args = parser.parse_args(argv)
    if args.kill_one_at is not None and (not args.spawn or args.workers < 2):
        parser.error("--kill-one-at requires --spawn and --workers > 1")
    if args.retries is None:
        args.retries = 2 if args.kill_one_at is not None else 0
    return args


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(args: argparse.Namespace) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro.cli", "serve",
           "--host", args.host, "--port", str(args.port),
           "--prewarm", args.circuit]
    if args.workers > 1:
        cmd += ["--workers", str(args.workers),
                "--control-port", str(args.control_port),
                "--heartbeat-s", str(args.heartbeat_s)]
    if args.batch_max is not None:
        cmd += ["--batch-max", str(args.batch_max)]
    if args.queue_depth is not None:
        cmd += ["--queue-depth", str(args.queue_depth)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(cmd, env=env)


def control_get(args: argparse.Namespace, path: str) -> Dict[str, Any]:
    """GET a JSON payload from the cluster supervisor's control port."""
    conn = http.client.HTTPConnection(args.host, args.control_port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def get_text(host: str, port: int, path: str) -> str:
    """GET a text payload (folded profile stacks, a Prometheus scrape)."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode("utf-8", "replace")
        if response.status >= 400:
            raise TransportError(f"GET {path} -> {response.status}: "
                                 f"{body[:200]}")
        return body
    finally:
        conn.close()


def _span_names(nodes: List[Dict[str, Any]]) -> set:
    """Every span name in an assembled tree (a node's ``children`` nest)."""
    names = set()
    for node in nodes:
        names.add(node.get("name", "?"))
        names |= _span_names(node.get("children") or ())
    return names


def check_debug_plane(args: argparse.Namespace, client: ServiceClient,
                      trace_ids: List[str]) -> Dict[str, Any]:
    """Exercise the debug plane after a traced run.

    Fetches the assembled span tree for sampled trace ids, a
    ``/debug/requests?limit=5`` flight snapshot and a 1-second profile
    burst — via the supervisor control port on a cluster (fleet-merged),
    the service port otherwise — and records what came back.
    ``requests_snapshots`` counts the flight snapshots that answered:
    one per worker on a cluster.  The CI observability job asserts on
    these fields.
    """
    result: Dict[str, Any] = {"trace": None, "profile_stacks": 0,
                              "requests_snapshots": 0}
    tree: Optional[Dict[str, Any]] = None
    for trace_id in trace_ids[:5]:
        if args.workers > 1:
            candidate = control_get(args, f"/debug/trace/{trace_id}")
        else:
            candidate = client.debug_trace(trace_id)
        if candidate.get("span_count"):
            tree = candidate
            break
    if tree is not None:
        result["trace"] = {
            "trace_id": tree.get("trace_id"),
            "span_count": tree.get("span_count"),
            "pids": tree.get("pids"),
            "workers": tree.get("workers"),
            "roots": len(tree.get("roots") or ()),
            "span_names": sorted(_span_names(tree.get("roots") or ())),
        }
    if args.workers > 1:
        bodies = control_get(args, "/debug/requests?limit=5")["workers"]
        snapshots = list(bodies.values())
    else:
        snapshots = [client.debug_requests(limit=5)]
    result["requests_snapshots"] = sum(
        1 for snap in snapshots if isinstance(snap, dict) and "recent" in snap)
    if args.workers > 1:
        folded = get_text(args.host, args.control_port,
                          "/debug/profile?seconds=1")
    else:
        folded = client.debug_profile(seconds=1.0)
    result["profile_stacks"] = sum(
        1 for line in folded.splitlines() if line.strip())
    return result


def wait_cluster_ready(args: argparse.Namespace,
                       timeout_s: float = 240.0) -> None:
    """Block until every cluster worker reports ready on the control port.

    Workers accept traffic while still prewarming; the supervisor counts
    them live only after the ``ready`` handshake (post-prewarm).  Gating
    the clock on full liveness keeps throughput numbers from charging the
    cluster for its siblings' cold compiles.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            workers = control_get(args, "/healthz").get("workers", {})
            if workers.get("live") == workers.get("configured"):
                return
        except (OSError, ValueError):
            pass
        time.sleep(0.1)
    raise RuntimeError(
        f"cluster: not all workers ready within {timeout_s:.0f}s")


def chaos_kill_one(args: argparse.Namespace, progress,
                   stop: threading.Event) -> Dict[str, Any]:
    """Kill -9 one cluster worker at ``--kill-one-at`` of the run and wait
    for the supervisor to respawn it (runs on its own thread)."""
    result: Dict[str, Any] = {"requested_at": args.kill_one_at,
                              "killed_pid": None, "recovered": False}
    while progress() < args.kill_one_at and not stop.is_set():
        time.sleep(0.02)
    if stop.is_set():  # run finished before the trigger point
        result["skipped"] = "run completed before kill point"
        return result
    try:
        health = control_get(args, "/healthz")
        live = [w for w in health.get("worker_table", [])
                if w.get("state") == "ready" and w.get("pid")]
        if not live:
            result["error"] = "no live worker to kill"
            return result
        victim = live[0]["pid"]
        result["killed_pid"] = victim
        result["killed_at_progress"] = round(progress(), 3)
        result["killed_at"] = time.monotonic()
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            health = control_get(args, "/healthz")
            pids = [w.get("pid") for w in health.get("worker_table", [])
                    if w.get("state") == "ready"]
            if len(pids) >= args.workers and victim not in pids:
                result["recovered"] = True
                result["recovered_s"] = round(
                    time.monotonic() - (deadline - 30), 3)
                break
            time.sleep(0.1)
    except Exception as exc:  # noqa: BLE001 - chaos must not crash the run
        result["error"] = repr(exc)
    return result


class Outcome:
    __slots__ = ("code", "latency_s", "fault_index", "candidates",
                 "trace_id", "trace_echoed", "done_at")

    def __init__(self, code: str, latency_s: float, fault_index: int,
                 candidates: Optional[tuple] = None,
                 trace_id: Optional[str] = None,
                 trace_echoed: Optional[bool] = None):
        self.code = code
        self.latency_s = latency_s
        self.fault_index = fault_index
        self.candidates = candidates
        self.trace_id = trace_id
        self.trace_echoed = trace_echoed
        #: Monotonic time the outcome arrived (it is built on arrival).
        self.done_at = time.monotonic()


def run_load(args: argparse.Namespace,
             outcomes: Optional[List[Outcome]] = None) -> List[Outcome]:
    """Fire diagnoses (``--requests`` of them, or for ``--duration``
    seconds) and collect every outcome.

    ``outcomes`` may be passed in so observers (the chaos thread) can
    watch progress live.
    """
    outcomes = [] if outcomes is None else outcomes
    lock = threading.Lock()
    t0 = time.monotonic()
    deadline = t0 + args.duration if args.duration else None
    schedule: "Queue[int]" = Queue()
    counter = {"next": 0}
    if deadline is None:
        for k in range(args.requests):
            schedule.put(k)

    def next_index() -> Optional[int]:
        if deadline is None:
            try:
                return schedule.get_nowait()
            except Empty:
                return None
        if time.monotonic() >= deadline:
            return None
        with lock:
            k = counter["next"]
            counter["next"] = k + 1
        return k

    def worker() -> None:
        client = ServiceClient(args.host, args.port,
                               timeout_s=args.timeout_ms / 1000 + 30)
        try:
            while True:
                k = next_index()
                if k is None:
                    return
                if args.rps > 0:
                    # Open loop: request k is *scheduled* at t0 + k/rps,
                    # regardless of how earlier requests are doing.
                    delay = t0 + k / args.rps - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                fault_index = k % args.fault_count
                payload = {
                    "circuit": args.circuit,
                    "scheme": args.scheme,
                    "fault_index": fault_index,
                    "fault_count": args.fault_count,
                    "num_patterns": args.patterns,
                    "timeout_ms": args.timeout_ms,
                    "request_id": str(k),
                }
                trace_id = new_trace_id() if args.trace else None
                started = time.monotonic()
                outcome: Optional[Outcome] = None
                for attempt in range(args.retries + 1):
                    try:
                        reply = client.diagnose(payload, trace_id=trace_id)
                        outcome = Outcome("ok", time.monotonic() - started,
                                          fault_index,
                                          tuple(reply.candidate_cells),
                                          trace_id=trace_id,
                                          trace_echoed=(
                                              reply.trace_id == trace_id
                                              if trace_id else None))
                        break
                    except ServiceError as exc:
                        outcome = Outcome(exc.code,
                                          time.monotonic() - started,
                                          fault_index, trace_id=trace_id)
                        break
                    except TransportError:
                        # A kill -9'd worker drops its connections; with a
                        # shared listen port a fresh connect lands on a
                        # live sibling, so retrying is safe and expected
                        # under --kill-one-at.
                        outcome = Outcome("transport_error",
                                          time.monotonic() - started,
                                          fault_index)
                        if attempt < args.retries:
                            time.sleep(0.05 * (attempt + 1))
                with lock:
                    outcomes.append(outcome)
        finally:
            client.close()

    limit = args.concurrency if deadline is not None else min(
        args.concurrency, args.requests)
    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(limit)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def quantile_ms(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return round(ordered[rank] * 1000, 3)


def summarize(outcomes: List[Outcome], wall_s: float) -> Dict[str, Any]:
    codes: Dict[str, int] = {}
    for o in outcomes:
        codes[o.code] = codes.get(o.code, 0) + 1
    ok_latencies = [o.latency_s for o in outcomes if o.code == "ok"]
    return {
        "requests": len(outcomes),
        "ok": codes.get("ok", 0),
        "codes": dict(sorted(codes.items())),
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(codes.get("ok", 0) / wall_s, 2) if wall_s else 0.0,
        "latency_ms": {
            "mean": round(sum(ok_latencies) / len(ok_latencies) * 1000, 3)
            if ok_latencies else 0.0,
            "p50": quantile_ms(ok_latencies, 0.50),
            "p95": quantile_ms(ok_latencies, 0.95),
            "p99": quantile_ms(ok_latencies, 0.99),
            "max": quantile_ms(ok_latencies, 1.0),
        },
    }


def run_baseline(args: argparse.Namespace) -> Dict[str, Any]:
    """Sequential one-shot CLI invocations: the cost the service amortizes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "repro.cli", "diagnose", args.circuit,
           "--faults", "1", "--patterns", str(args.patterns),
           "--scheme", args.scheme]
    runs = []
    for _ in range(args.baseline):
        started = time.monotonic()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        runs.append(time.monotonic() - started)
    mean_s = sum(runs) / len(runs)
    return {
        "runs": len(runs),
        "mean_s": round(mean_s, 3),
        "rps": round(1.0 / mean_s, 3),
    }


def verify_determinism(args: argparse.Namespace,
                       outcomes: List[Outcome]) -> Dict[str, Any]:
    """Replies must agree per fault index and match core.diagnosis."""
    from repro.service.engine import DiagnosisEngine
    from repro.service.protocol import DiagnoseRequest

    by_index: Dict[int, set] = {}
    for o in outcomes:
        if o.code == "ok" and o.candidates is not None:
            by_index.setdefault(o.fault_index, set()).add(o.candidates)
    unstable = sorted(i for i, seen in by_index.items() if len(seen) > 1)
    engine = DiagnosisEngine()
    mismatched = []
    for index, seen in sorted(by_index.items()):
        request = DiagnoseRequest.from_payload({
            "circuit": args.circuit, "scheme": args.scheme,
            "fault_index": index, "fault_count": args.fault_count,
            "num_patterns": args.patterns,
        })
        direct = engine.execute_batch([request])[0]
        if tuple(direct.candidate_cells) not in seen:
            mismatched.append(index)
    return {
        "indices_checked": len(by_index),
        "unstable_indices": unstable,
        "direct_mismatches": mismatched,
        "ok": not unstable and not mismatched,
    }


_PROM_SAMPLE = re.compile(r"^(\w+)\{(.*)\} (\S+)$")
_PROM_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
REQUEST_SECONDS = "repro_service_request_seconds"


def prometheus_problems(text: str) -> List[str]:
    """What is wrong with the ``repro_service_request_seconds`` family in
    one Prometheus scrape: it must be typed ``histogram`` and, for every
    stage, ``le`` must ascend, cumulative counts never decrease, and the
    closing ``+Inf`` bucket equal ``_count``."""
    problems = []
    if f"# TYPE {REQUEST_SECONDS} histogram" not in text.splitlines():
        problems.append(f"{REQUEST_SECONDS} is not typed histogram")
    buckets: Dict[str, List[Tuple[str, float]]] = {}
    counts: Dict[str, float] = {}
    for line in text.splitlines():
        match = _PROM_SAMPLE.match(line)
        if not match or not match.group(1).startswith(REQUEST_SECONDS):
            continue
        name, raw_labels, value = match.groups()
        labels = dict(_PROM_LABEL.findall(raw_labels))
        stage = labels.get("stage", "")
        if name == f"{REQUEST_SECONDS}_bucket":
            buckets.setdefault(stage, []).append((labels.get("le", ""),
                                                  float(value)))
        elif name == f"{REQUEST_SECONDS}_count":
            counts[stage] = float(value)
    if "total" not in counts:
        problems.append(f"{REQUEST_SECONDS} has no stage=total series")
    for stage in sorted(set(buckets) | set(counts)):
        rows = buckets.get(stage, [])
        bounds = [float(le) for le, _ in rows]
        cumulative = [cum for _, cum in rows]
        if not rows or rows[-1][0] != "+Inf":
            problems.append(f"stage={stage}: no closing +Inf bucket")
        elif rows[-1][1] != counts.get(stage):
            problems.append(f"stage={stage}: +Inf bucket {rows[-1][1]:g} "
                            f"!= _count {counts.get(stage)}")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            problems.append(f"stage={stage}: le bounds do not ascend")
        if cumulative != sorted(cumulative):
            problems.append(f"stage={stage}: cumulative counts decrease")
    return problems


def check_metrics(args: argparse.Namespace,
                  client: ServiceClient) -> Dict[str, Any]:
    payload = client.metrics()
    problems = []
    for key in ("queue", "batching", "latency", "requests", "registry"):
        if key not in payload:
            problems.append(f"missing {key!r}")
    latency = payload.get("latency", {}).get("total", {})
    if not latency.get("count"):
        problems.append("latency.total.count is 0 after load")
    batching = payload.get("batching", {})
    if not batching.get("batches"):
        problems.append("batching.batches is 0 after load")
    problems += prometheus_problems(
        get_text(args.host, args.port, "/metrics?format=prometheus"))
    return {
        "well_formed": not problems,
        "problems": problems,
        "queue": payload.get("queue"),
        "batching": {k: batching.get(k) for k in
                     ("batch_max", "batches", "batch_size")},
        "latency": payload.get("latency"),
        "rejected": payload.get("rejected"),
        "timeouts": payload.get("timeouts"),
        "cache": payload.get("cache"),
    }


def fleet_ok_floor(args: argparse.Namespace, outcomes: List[Outcome],
                   chaos: Dict[str, Any]) -> int:
    """The ok replies the fleet ``/metrics`` must have counted.

    The supervisor folds a dead worker's last heartbeat into the fleet
    totals, so every reply counts except those a ``kill -9``'d worker
    served after its last beat.  Those arrive within a heartbeat or two
    before the kill (or just after it, still in flight on the wire);
    only replies in that window are left out.
    """
    killed_at = chaos.get("killed_at") if chaos.get("killed_pid") else None
    if killed_at is None:
        return sum(1 for o in outcomes if o.code == "ok")
    lost_from = killed_at - 2 * args.heartbeat_s
    lost_until = killed_at + args.heartbeat_s
    return sum(1 for o in outcomes if o.code == "ok"
               and not lost_from <= o.done_at <= lost_until)


def check_cluster_metrics(args: argparse.Namespace,
                          ok_floor: int) -> Dict[str, Any]:
    """Validate the supervisor's aggregated control-port ``/metrics``.

    Fleet counters arrive with worker heartbeats, so right after the load
    they may lag.  Poll for up to 3 heartbeat intervals until fleet
    ``requests.ok`` and ``fleet_latency.total.count`` both reach
    ``ok_floor`` (:func:`fleet_ok_floor`).
    """
    deadline = time.monotonic() + 3 * args.heartbeat_s
    polls = 0
    while True:
        payload = control_get(args, "/metrics")
        polls += 1
        fleet_ok = payload.get("requests", {}).get("ok", 0)
        fleet_total = (payload.get("fleet_latency", {})
                       .get("total", {}).get("count", 0))
        if min(fleet_ok, fleet_total) >= ok_floor or \
                time.monotonic() >= deadline:
            break
        time.sleep(args.heartbeat_s / 5)
    problems = []
    for key in ("workers", "worker_table", "requests", "fleet_latency",
                "registry"):
        if key not in payload:
            problems.append(f"missing {key!r}")
    workers = payload.get("workers", {})
    if workers.get("live", 0) < workers.get("quorum", 1):
        problems.append(
            f"live workers {workers.get('live')} below quorum "
            f"{workers.get('quorum')}")
    if fleet_ok < max(ok_floor, 1):
        problems.append(f"fleet requests.ok {fleet_ok} < {ok_floor} ok "
                        f"replies after {polls} polls")
    if fleet_total < max(ok_floor, 1):
        problems.append(f"fleet_latency.total.count {fleet_total} < "
                        f"{ok_floor} ok replies after {polls} polls")
    problems += prometheus_problems(
        get_text(args.host, args.control_port, "/metrics?format=prometheus"))
    return {
        "well_formed": not problems,
        "problems": problems,
        "ok_floor": ok_floor,
        "polls": polls,
        "workers": workers,
        "worker_table": payload.get("worker_table"),
        "requests": payload.get("requests"),
        "fleet_latency": payload.get("fleet_latency"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.port is None:
        args.port = free_port() if args.spawn else int(
            os.environ.get("REPRO_SERVE_PORT", "8953"))
    args.control_port = free_port() if args.workers > 1 else None
    report: Dict[str, Any] = {
        "schema": "repro-loadgen-report",
        "version": 2,
        "python": platform.python_version(),
        "config": {
            "requests": args.requests, "duration_s": args.duration,
            "rps": args.rps,
            "concurrency": args.concurrency, "circuit": args.circuit,
            "scheme": args.scheme, "fault_count": args.fault_count,
            "patterns": args.patterns, "timeout_ms": args.timeout_ms,
            "workers": args.workers, "retries": args.retries,
        },
    }
    proc: Optional[subprocess.Popen] = None
    failed = False
    try:
        if args.spawn:
            proc = spawn_server(args)
        client = ServiceClient(args.host, args.port)
        client.wait_ready(timeout_s=120)
        if args.spawn and args.workers > 1:
            wait_cluster_ready(args)

        outcomes: List[Outcome] = []
        chaos_thread: Optional[threading.Thread] = None
        chaos_result: Dict[str, Any] = {}
        chaos_stop = threading.Event()
        if args.kill_one_at is not None:
            expected = args.requests

            def progress() -> float:
                if args.duration:
                    return min(1.0, (time.monotonic() - started) / args.duration)
                return len(outcomes) / expected if expected else 1.0

            def chaos_runner() -> None:
                chaos_result.update(chaos_kill_one(args, progress, chaos_stop))

            chaos_thread = threading.Thread(target=chaos_runner, daemon=True)

        started = time.monotonic()
        if chaos_thread is not None:
            chaos_thread.start()
        run_load(args, outcomes)
        wall_s = time.monotonic() - started
        if chaos_thread is not None:
            chaos_stop.set()
            chaos_thread.join(timeout=60)
            report["chaos"] = chaos_result
            if not chaos_result.get("recovered") and \
                    not chaos_result.get("skipped"):
                failed = True
        report["service"] = summarize(outcomes, wall_s)
        if args.trace:
            ok_traced = [o for o in outcomes
                         if o.code == "ok" and o.trace_id]
            report["tracing"] = {
                "sent": sum(1 for o in outcomes if o.trace_id),
                "ok": len(ok_traced),
                "echoed": sum(1 for o in ok_traced if o.trace_echoed),
                # Late outcomes sit past warmup, when every cluster
                # worker is serving.
                "sample_trace_ids": [o.trace_id for o in ok_traced[-20:]],
            }

        if args.workers > 1:
            report["metrics_after"] = check_cluster_metrics(
                args, fleet_ok_floor(args, outcomes, chaos_result))
        else:
            report["metrics_after"] = check_metrics(args, client)
        if args.trace and report["tracing"]["sample_trace_ids"]:
            try:
                report["tracing"]["debug"] = check_debug_plane(
                    args, client, report["tracing"]["sample_trace_ids"])
            except (ServiceError, TransportError, OSError, ValueError) as exc:
                report["tracing"]["debug"] = {"error": str(exc)}
        if args.verify:
            report["determinism"] = verify_determinism(args, outcomes)
            if not report["determinism"]["ok"]:
                failed = True
        client.close()

        if args.baseline:
            report["baseline_oneshot"] = run_baseline(args)
            base_rps = report["baseline_oneshot"]["rps"]
            if base_rps:
                report["speedup_vs_oneshot"] = round(
                    report["service"]["throughput_rps"] / base_rps, 2)

        dropped = report["service"]["requests"] - sum(
            report["service"]["codes"].get(code, 0)
            for code in ("ok", "queue_full", "deadline_exceeded"))
        report["service"]["dropped"] = dropped
        any_5xx = any(code in ("internal_error", "shutting_down",
                               "transport_error")
                      for code in report["service"]["codes"])
        if args.fail_on_5xx and (any_5xx or dropped):
            failed = True
        if not report["metrics_after"]["well_formed"]:
            failed = True
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                exit_code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                exit_code = proc.wait()
            report["drain"] = {
                "signal": "SIGTERM",
                "exit_code": exit_code,
                "clean": exit_code == 0,
            }
            if exit_code != 0:
                failed = True

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics_after"},
                     indent=2))
    print(f"wrote {out}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
