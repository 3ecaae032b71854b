"""Serve workloads: open-loop load against ``python -m repro.cli serve``.

Set-up spawns the server (with no batching flags and the pinned
environment), sends one untimed request per workload key, and times that
from spawn to the last warm reply; it does so three times and keeps the
third server.  The bench computes every reply it expects in-process
first, with ``repro.core.diagnosis.diagnose``, and checks those references
against the oracle.  The load then climbs a ladder of fixed-rate steps
(see :mod:`loadgen`); the nominal step gives latency and server CPU per
request.  Finally the server is sent SIGTERM and must drain and exit 0.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (BENCH_DIR, CheckFailed, child_env, median, peak_rss_mb,
                    percentile)
from loadgen import LoadGenerator, StepResult, poisson_offsets
from oracle import check_results, oracle_candidates
from tracing import load_spans, rollup

SETUPS = 3
SERVER_START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
#: A step still unanswered this long after its last due time is abandoned.
STEP_GIVE_UP_S = 5.0
#: Shortest non-nominal step: long enough for its p99 to see a few
#: hundred requests at the ladder's middle rates.
MIN_STEP_S = 2.0


@dataclass(frozen=True)
class ServeSpec:
    """One traffic mix: its keys, its rate ladder and its latency limit."""

    name: str
    slo_ms: float
    rates: Tuple[int, ...]
    nominal_rate: int
    #: ``(circuit, scheme)`` pairs; one workload key each.
    keys: Tuple[Tuple[str, str], ...]
    num_partitions: int
    num_groups: int
    #: Faults in the bench's own sample per circuit.
    faults: int
    upload: bool
    #: The nominal step lasts long enough for this many requests, so its
    #: p99 has at least ten samples beyond it.
    min_nominal_samples: int = 1000


REPLAY = ServeSpec(
    name="serve_replay", slo_ms=100.0, rates=(100, 200, 400, 800),
    nominal_rate=100, keys=(("s953", "two-step"),),
    num_partitions=8, num_groups=8, faults=64, upload=False,
)
UPLOAD = ServeSpec(
    name="serve_upload", slo_ms=150.0, rates=(25, 50, 100, 300),
    nominal_rate=50,
    keys=(("s38417", "two-step"), ("s38417", "random"),
          ("s35932", "two-step"), ("s35932", "random")),
    num_partitions=8, num_groups=16, faults=48, upload=True,
)
MISR_WIDTH = 24
PATTERNS = 128


# -- expected replies ----------------------------------------------------------


@dataclass
class Traffic:
    """Pre-encoded request bodies, the expected reply of each, and one
    warm-up body per workload key."""

    bodies: List[bytes]
    expected: List[Dict[str, Any]]
    warm: List[bytes]
    mispruned_faults: int


def _payload(spec: ServeSpec, circuit: str, scheme: str, seed: int) -> Dict[str, Any]:
    return {
        "circuit": circuit, "scheme": scheme,
        "num_partitions": spec.num_partitions, "num_groups": spec.num_groups,
        "misr_width": MISR_WIDTH, "num_patterns": PATTERNS, "fault_seed": seed,
        # The server resolves a workload per key even for uploads; one
        # sampled fault keeps that resolution to compile + golden sim.
        "fault_count": 1 if spec.upload else spec.faults,
    }


def build_traffic(spec: ServeSpec, seed: int, count: int) -> Traffic:
    """The bench's own seeded inputs and their in-process references."""
    from repro.bist.misr import LinearCompactor
    from repro.core.diagnosis import diagnose
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_circuit_workload, scheme_partitions

    config = ExperimentConfig(num_patterns=PATTERNS, num_faults=spec.faults,
                              num_faults_large=spec.faults,
                              misr_width=MISR_WIDTH, fault_seed=seed)
    per_key: List[Tuple[Dict[str, Any], List[Any], List[Dict[str, Any]]]] = []
    mispruned = 0
    for circuit, scheme in spec.keys:
        workload = build_circuit_workload(circuit, config)
        scan = workload.scan_config
        partitions = scheme_partitions(scheme, scan.max_length, spec.num_groups,
                                       spec.num_partitions)
        compactor = LinearCompactor(MISR_WIDTH, scan.num_chains)
        results = [diagnose(r, scan, partitions, compactor)
                   for r in workload.responses]
        failing = [r.failing_cells for r in workload.responses]
        oracle = oracle_candidates(failing, scan.chains, partitions)
        mispruned += check_results(f"{spec.name}/{circuit}/{scheme} reference",
                                   failing, oracle, results,
                                   MISR_WIDTH)["mispruned_faults"]
        expected = [{
            "candidate_cells": sorted(r.candidate_cells),
            "actual_cells": sorted(r.actual_cells),
            "candidate_history": list(r.candidate_history),
            "num_sessions": r.num_sessions,
            "sound": r.sound,
        } for r in results]
        per_key.append((_payload(spec, circuit, scheme, seed),
                        workload.responses, expected))

    rng = random.Random(seed)
    bodies, expected_replies = [], []
    for index in range(count):
        template, responses, expected = per_key[rng.randrange(len(per_key))]
        fault = rng.randrange(len(responses))
        payload = dict(template, request_id=str(index))
        if spec.upload:
            payload["cell_errors"] = _cell_errors(responses[fault])
        else:
            payload["fault_index"] = fault
        bodies.append(json.dumps(payload).encode())
        expected_replies.append(expected[fault])
    warm = [json.dumps(dict(template, request_id="warm",
                            **({"cell_errors": _cell_errors(responses[0])}
                               if spec.upload else {"fault_index": 0}))).encode()
            for template, responses, _ in per_key]
    return Traffic(bodies, expected_replies, warm, mispruned)


def _cell_errors(response) -> Dict[str, List[int]]:
    """A tester upload: failing cell -> patterns that captured an error."""
    import numpy as np

    upload = {}
    for cell, words in response.cell_errors.items():
        bits = np.unpackbits(np.asarray(words, dtype="<u8").view(np.uint8),
                             bitorder="little")[:response.num_patterns]
        upload[str(cell)] = [int(p) for p in np.flatnonzero(bits)]
    return upload


def check_reply(sample_body: bytes, expected: Dict[str, Any], label: str) -> Dict[str, Any]:
    reply = json.loads(sample_body)
    for key, value in expected.items():
        if reply.get(key) != value:
            raise CheckFailed(f"{label}: reply {key} differs from the "
                              "in-process diagnosis")
    return reply.get("timing", {})


# -- the server process --------------------------------------------------------


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, spans_path: Optional[str] = None):
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_server.py"),
                   "--spans", spans_path]
        cmd += ["--port", "0"]
        self.proc = subprocess.Popen(cmd, env=child_env(),
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self.stderr: List[str] = []
        self.port = 0
        self._started = threading.Event()
        self._drain_thread = threading.Thread(target=self._drain_stderr,
                                              daemon=True)
        self._drain_thread.start()
        if not self._started.wait(SERVER_START_TIMEOUT_S) or not self.port:
            self.kill()
            raise CheckFailed("server did not start: "
                              + "".join(self.stderr[-20:]))

    def _drain_stderr(self) -> None:
        """Collect stderr; the first ``serving on`` line gives the port."""
        assert self.proc.stderr is not None
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace")
            self.stderr.append(line)
            if not self.port and line.startswith("serving on http://"):
                self.port = int(line.rsplit(":", 1)[1])
                self._started.set()
        self._started.set()  # exited without serving

    def cpu_s(self) -> float:
        """User + system CPU of the whole server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM; the server must drain and exit 0 in time."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise CheckFailed("server did not drain within "
                              f"{DRAIN_TIMEOUT_S:.0f} s of SIGTERM")
        self._drain_thread.join(timeout=5.0)
        if code != 0:
            raise CheckFailed(f"unclean drain: server exited {code}: "
                              + "".join(self.stderr[-20:]))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10.0)


def _warm(server: Server, warm_bodies: Sequence[bytes]) -> None:
    gen = LoadGenerator("127.0.0.1", server.port)
    try:
        step = gen.run_step([0.0] * len(warm_bodies), warm_bodies,
                            SERVER_START_TIMEOUT_S)
    finally:
        gen.close()
    if step.failed:
        bad = next(s for s in step.samples if not s.ok)
        raise CheckFailed(f"warm-up request failed: {bad.status} {bad.error} "
                          f"{bad.body[:200]!r}")


def start_server(warm_bodies: Sequence[bytes],
                 spans_path: Optional[str]) -> Tuple[Server, float]:
    """Spawn, wait for the port, answer one request per key: set-up time."""
    t0 = time.perf_counter()
    server = Server(spans_path)
    try:
        _warm(server, warm_bodies)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - t0


# -- the run -------------------------------------------------------------------


def step_durations(spec: ServeSpec, seconds: float) -> Dict[int, float]:
    """Half the run on the nominal step (never under the spec's minimum
    sample count), the rest shared by the other steps."""
    nominal = max(spec.min_nominal_samples / spec.nominal_rate, seconds / 2.0)
    others = max(MIN_STEP_S, (seconds - nominal) / (len(spec.rates) - 1))
    return {rate: nominal if rate == spec.nominal_rate else others
            for rate in spec.rates}


#: Traced serve span -> per-request layer metric (self CPU, µs/request).
SERVE_LAYERS = {
    "protocol.parse_us": "protocol.parse",
    "protocol.encode_us": "protocol.encode",
    "engine.resolve_us": "engine.resolve",
    "engine.response_build_us": "engine.response_build",
    "core.diagnose_us": "core.diagnose",
}


def traced_layers(spans: Sequence[Dict[str, Any]], window: Tuple[float, float],
                  completed: int, cpu_us_per_req: float) -> Dict[str, float]:
    """Per-request self CPU of each traced layer over the nominal step,
    and the server CPU no traced layer accounts for."""
    lo, hi = window
    table = rollup(s for s in spans if lo <= s["start"] <= hi)
    layers = {metric: table.get(name, {}).get("self_cpu", 0.0) / completed * 1e6
              for metric, name in SERVE_LAYERS.items()}
    layers["server.unattributed_us"] = cpu_us_per_req - sum(layers.values())
    return layers


def run(spec: ServeSpec, seed: int, seconds: float, traced: bool,
        out_dir: Path) -> Dict[str, Any]:
    spans_path = (str(out_dir / f"{spec.name}-seed{seed}.spans.jsonl")
                  if traced else None)
    durations = step_durations(spec, seconds)
    rng = random.Random(seed)
    schedules = {rate: poisson_offsets(rate, durations[rate], rng)
                 for rate in spec.rates}
    total = sum(len(offsets) for offsets in schedules.values())
    traffic = build_traffic(spec, seed, total)

    setup_times: List[float] = []
    server: Optional[Server] = None
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        server, elapsed = start_server(traffic.warm,
                                       spans_path if last else None)
        setup_times.append(elapsed)
        if not last:
            server.stop()
    assert server is not None

    steps: Dict[int, Dict[str, Any]] = {}
    window: Tuple[float, float] = (0.0, 0.0)
    cpu_s = 0.0
    cursor = 0
    gen = LoadGenerator("127.0.0.1", server.port)
    try:
        for rate in spec.rates:
            offsets = schedules[rate]
            bodies = traffic.bodies[cursor:cursor + len(offsets)]
            expected = traffic.expected[cursor:cursor + len(offsets)]
            cursor += len(offsets)
            if steps and not all(s["meets_slo"] for s in steps.values()) \
                    and rate != spec.nominal_rate:
                continue  # a higher rate than a failing step fails too
            wall0, cpu0 = time.time(), server.cpu_s()
            step = gen.run_step(offsets, bodies, STEP_GIVE_UP_S)
            cpu1, wall1 = server.cpu_s(), time.time()
            summary = step.summary(spec.slo_ms)
            summary["rate"] = rate
            summary["timing"] = _check_step(spec, step, expected, rate)
            steps[rate] = summary
            if rate == spec.nominal_rate:
                window, cpu_s = (wall0, wall1), cpu1 - cpu0
        peak_rss = peak_rss_mb(server.proc.pid)
    finally:
        gen.close()
        try:
            server.stop()
        finally:
            server.kill()

    nominal = steps[spec.nominal_rate]
    if nominal["failed"]:
        raise CheckFailed(f"{nominal['failed']} requests failed at the "
                          f"nominal {spec.nominal_rate} rps step")
    if nominal["lateness_p99_ms"] > spec.slo_ms / 2:
        raise CheckFailed(
            f"load generator fell behind its schedule: p99 lateness "
            f"{nominal['lateness_p99_ms']:.1f} ms at the nominal step")
    passing = [s for s in steps.values() if s["meets_slo"]]
    best = max(passing, key=lambda s: s["rate"]) if passing else None
    completed = nominal["requests"] - nominal["failed"]
    attempted = sum(s["requests"] for s in steps.values())
    failed = sum(s["failed"] for s in steps.values())
    timing = nominal["timing"]
    cpu_us_per_req = cpu_s / completed * 1e6
    layers = {
        "batching.queue_wait_ms.p50": timing["queue_wait_p50"],
        "batching.queue_wait_ms.p99": timing["queue_wait_p99"],
        "batching.batch_size.mean": timing["batch_size_mean"],
        "engine.execute_ms.p50": timing["execute_p50"],
        "server.residual_ms.p50": timing["residual_p50"],
        "loadgen.lateness_ms.p99": nominal["lateness_p99_ms"],
    }
    if spans_path is not None:
        layers.update(traced_layers(load_spans(spans_path), window, completed,
                                    cpu_us_per_req))
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setup_times),
            "p50_ms": nominal["p50_ms"],
            "p99_ms": nominal["p99_ms"],
            # Throughput achieved at the highest step meeting the SLO
            # (max_rps_at_slo, as measured rather than as offered).
            "diagnoses_per_s": best["throughput_rps"] if best else 0.0,
            "cpu_us_per_diagnosis": cpu_us_per_req,
            "peak_rss_mb": peak_rss,
        },
        "layers": layers,
        "detail": {
            "setup_times_s": setup_times,
            "steps": {str(rate): {k: v for k, v in s.items() if k != "timing"}
                      for rate, s in steps.items()},
            "max_rps_at_slo": best["rate"] if best else 0,
            "slo_ms": spec.slo_ms,
            "nominal_rate": spec.nominal_rate,
            "nominal_requests": nominal["requests"],
            "server_cpu_s": cpu_s,
            "reference_mispruned_faults": traffic.mispruned_faults,
        },
    }


def _check_step(spec: ServeSpec, step: StepResult,
                expected: Sequence[Dict[str, Any]], rate: int) -> Dict[str, float]:
    """Every reply equals its reference; returns the reply-timing summary."""
    queue_wait, execute, residual, batch = [], [], [], []
    for sample in step.samples:
        if not sample.ok:
            continue
        timing = check_reply(sample.body, expected[sample.index],
                             f"{spec.name} {rate} rps request {sample.index}")
        queue_wait.append(timing["queue_wait_ms"])
        execute.append(timing["execute_ms"])
        batch.append(timing["batch_size"])
        residual.append(sample.latency * 1000 - timing["queue_wait_ms"]
                        - timing["execute_ms"])
    if not queue_wait:
        return {"queue_wait_p50": 0.0, "queue_wait_p99": 0.0,
                "batch_size_mean": 0.0, "execute_p50": 0.0,
                "residual_p50": 0.0}
    return {
        "queue_wait_p50": median(queue_wait),
        "queue_wait_p99": percentile(queue_wait, 0.99),
        "batch_size_mean": sum(batch) / len(batch),
        "execute_p50": median(execute),
        "residual_p50": median(residual),
    }
