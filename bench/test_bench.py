"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Covers the oracle against ``repro.core.diagnosis.diagnose``, the compare
verdicts, the load generator against a stub server that imports nothing
from ``repro``, the span recorder, and a tiny-size smoke of every workload.
"""

from __future__ import annotations

import dataclasses
import http.server
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from common import ROOT, CheckFailed, pin_environment, tail_quantile, use_repo_src

pin_environment()
use_repo_src()

import numpy as np  # noqa: E402

import compare  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402


# -- oracle --------------------------------------------------------------------


class _Part:
    def __init__(self, group_of, num_groups):
        self.group_of = np.asarray(group_of)
        self.num_groups = num_groups


def test_oracle_definition_by_hand():
    # Two chains of three cells; cell ids by chain: [0, 1, 2], [3, 4, 5].
    chains = [[0, 1, 2], [3, 4, 5]]
    parts = [_Part([0, 0, 1], 2), _Part([0, 1, 1], 2)]
    mask, history, sessions = oracle.oracle_candidates([[1], []], chains, parts)
    # Fault 0 fails cell 1 (chain 0, position 1).  Partition 0 puts
    # positions 0 and 1 of chain 0 in one bucket, partition 1 positions
    # 1 and 2: only cell 1 is in a failing bucket both times.
    assert mask[0].tolist() == [False, True, False, False, False, False]
    assert history[0].tolist() == [2, 1]
    assert not mask[1].any() and history[1].tolist() == [0, 0]
    assert sessions == 2  # one failing (group, chain) bucket per partition


def _workload(name, faults=40):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_circuit_workload

    return build_circuit_workload(name, ExperimentConfig(
        num_faults=faults, num_faults_large=faults, fault_seed=7))


@pytest.mark.parametrize("circuit", ["s27", "s953"])
@pytest.mark.parametrize("scheme", ["two-step", "random", "interval",
                                    "deterministic"])
def test_oracle_matches_diagnose(circuit, scheme):
    from repro.bist.misr import LinearCompactor
    from repro.core.diagnosis import diagnose
    from repro.experiments.runner import scheme_partitions

    workload = _workload(circuit)
    scan = workload.scan_config
    parts = scheme_partitions(scheme, scan.max_length, 4, 6)
    failing = [r.failing_cells for r in workload.responses]
    reference = oracle.oracle_candidates(failing, scan.chains, parts)
    exact = [diagnose(r, scan, parts, None) for r in workload.responses]
    assert oracle.check_results("exact", failing, reference,
                                exact)["mispruned_cells"] == 0
    misr = [diagnose(r, scan, parts, LinearCompactor(24, 1))
            for r in workload.responses]
    oracle.check_results("misr", failing, reference, misr, 24)


def test_oracle_catches_wrong_candidates_and_aliasing():
    from repro.bist.misr import LinearCompactor
    from repro.core.diagnosis import diagnose
    from repro.experiments.runner import scheme_partitions

    workload = _workload("s953")
    scan = workload.scan_config
    parts = scheme_partitions("random", scan.max_length, 4, 6)
    failing = [r.failing_cells for r in workload.responses]
    reference = oracle.oracle_candidates(failing, scan.chains, parts)
    exact = [diagnose(r, scan, parts, None) for r in workload.responses]
    victim = next(r for r in exact if len(r.candidate_cells) > len(r.actual_cells))
    victim.candidate_cells = set(victim.actual_cells)
    with pytest.raises(CheckFailed, match="differ from the oracle"):
        oracle.check_results("exact", failing, reference, exact)
    # A 4-bit MISR aliases often: still inside the oracle, but far more
    # mis-prunes than the 24-bit bound allows.
    narrow = [diagnose(r, scan, parts, LinearCompactor(4, 1))
              for r in workload.responses]
    with pytest.raises(CheckFailed, match="MISR aliasing"):
        oracle.check_results("misr4", failing, reference, narrow, 24)


def test_aliasing_limit():
    assert oracle.aliasing_limit(0.0) == 0
    assert oracle.aliasing_limit(1e-3) == 2
    assert 100 < oracle.aliasing_limit(100.0) < 200


# -- compare -------------------------------------------------------------------


@pytest.mark.parametrize("a, b, better, expected", [
    ([10, 10.1, 9.9, 10.05, 9.95], [10.2, 10.3, 10.1, 10.25, 10.15], "lower", "agree"),
    ([10, 10.1, 9.9, 10.05, 9.95], [12, 12.1, 11.9, 12.05, 11.95], "lower", "regressed"),
    ([10, 10.1, 9.9, 10.05, 9.95], [8, 8.1, 7.9, 8.05, 7.95], "higher", "regressed"),
    ([10, 10.1, 9.9, 10.05, 9.95], [12, 12.1, 11.9, 12.05, 11.95], "higher", "agree"),
    ([10, 14, 7, 12, 9], [10, 10.1, 9.9, 10.05, 9.95], "lower", "unresolved"),
    ([10, 14, 7, 12, 9], [5, 5.1, 4.9, 5.05, 4.95], "lower", "agree"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1)[0] == expected


def test_compare_directories(tmp_path, capsys):
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    for side, values in (("A", [1.0, 1.01, 0.99]), ("B", [1.0, 1.02, 0.98])):
        (tmp_path / side).mkdir()
        for i, value in enumerate(values):
            (tmp_path / side / f"w-seed{i}.json").write_text(json.dumps({
                "workload": "w", "traced": False, "metrics": {"m": value},
                "detail": {"max_rps_at_slo": 200}}))
    assert compare.compare(tmp_path / "A", tmp_path / "B", spec) == 0
    assert "identical in every run" in capsys.readouterr().out


# -- load generator ------------------------------------------------------------


class _Stub(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay_s = 0.0
    fail_every = 0
    seen = 0
    lock = threading.Lock()

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            type(self).seen += 1
            seen = self.seen
        time.sleep(self.delay_s)
        status = 500 if self.fail_every and seen % self.fail_every == 0 else 200
        reply = json.dumps({"echo": body.decode()}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub():
    handler = type("Handler", (_Stub,), {"seen": 0})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_poisson_schedule_is_seeded_and_exact():
    a = loadgen.poisson_offsets(200, 2.0, random.Random(3))
    b = loadgen.poisson_offsets(200, 2.0, random.Random(3))
    c = loadgen.poisson_offsets(200, 2.0, random.Random(4))
    assert a == b != c
    assert len(a) == 400 and a == sorted(a) and 0 <= a[0] and a[-1] < 2.0


def test_loadgen_times_from_due_and_replies_in_order(stub):
    server, handler = stub
    handler.delay_s = 0.01
    gen = loadgen.LoadGenerator("127.0.0.1", server.server_address[1])
    offsets = loadgen.poisson_offsets(50, 0.5, random.Random(1))
    bodies = [str(i).encode() for i in range(len(offsets))]
    try:
        step = gen.run_step(offsets, bodies, 5.0)
    finally:
        gen.close()
    assert step.failed == 0
    assert all(json.loads(s.body)["echo"] == str(s.index) for s in step.samples)
    assert all(s.done - s.due >= 0.01 for s in step.samples)
    assert all(s.sent >= s.due for s in step.samples)
    summary = step.summary(slo_ms=1000)
    assert summary["meets_slo"] and summary["requests"] == len(offsets)
    assert summary["lateness_p99_ms"] < 50


def test_loadgen_counts_failures_and_backlog(stub):
    server, handler = stub
    handler.fail_every = 5
    gen = loadgen.LoadGenerator("127.0.0.1", server.server_address[1])
    try:
        failing = gen.run_step(loadgen.poisson_offsets(40, 0.5, random.Random(2)),
                               [b"{}"] * 20, 5.0)
        handler.fail_every, handler.delay_s = 0, 0.03
        # 2 connections x 30 ms cap throughput near 66 rps: 200 rps backs up.
        overloaded = gen.run_step(loadgen.poisson_offsets(200, 0.5, random.Random(2)),
                                  [b"{}"] * 100, 5.0)
    finally:
        gen.close()
    assert failing.failed == 4
    summary = failing.summary(slo_ms=1000)
    assert summary["p99_ms"] == float("inf") and not summary["meets_slo"]
    summary = overloaded.summary(slo_ms=100)
    assert overloaded.failed == 0 and overloaded.backlog > 10
    assert summary["drain_ms"] > 100 and not summary["meets_slo"]


def test_stub_server_imports_nothing_from_repro():
    source = Path(__file__).read_text()
    stub_source = source[source.index("class _Stub"):source.index("@pytest.fixture")]
    assert "repro" not in stub_source
    assert "repro" not in Path(loadgen.__file__).read_text()


# -- tracing -------------------------------------------------------------------


def test_recorder_self_time_and_restore():
    import types

    module = types.ModuleType("repro_fake_layer")
    sys.modules["repro_fake_layer"] = module

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        module.inner()

    module.inner, module.outer = inner, outer
    recorder = tracing.Recorder()
    try:
        assert recorder.patch_function("repro_fake_layer", "inner", "in") == 1
        assert recorder.patch_function("repro_fake_layer", "outer", "out") == 1
        module.outer()
    finally:
        recorder.restore()
        del sys.modules["repro_fake_layer"]
    assert module.inner is inner and module.outer is outer
    spans = {s["name"]: s for s in recorder.spans}
    assert spans["in"]["parent"] == spans["out"]["id"]
    assert spans["in"]["self_wall"] == spans["in"]["wall"] >= 0.02
    assert spans["out"]["self_wall"] >= 0.01
    assert spans["out"]["wall"] - spans["out"]["self_wall"] == pytest.approx(
        spans["in"]["wall"])


def test_tail_quantile_keeps_ten_samples_beyond():
    assert tail_quantile(1000) == 0.99
    assert tail_quantile(144) == pytest.approx(1 - 10 / 144)
    assert tail_quantile(5) == 1.0


# -- workload smoke ------------------------------------------------------------


def test_paper_cold_smoke(tmp_path):
    import offline

    result = offline.run_paper_cold(3, 0.0, True, tmp_path, faults=4)
    assert result["attempted"] == 1 and not result["detail"]["digest_checked"]
    assert all(v > 0 for v in result["metrics"].values())
    layers = result["layers"]
    assert layers["circuit.generate_s"] > 0 and layers["sim.fault_sim_s"] > 0
    assert layers["soc.lift_s"] > 0 and layers["core.diagnose_calls"] == 36


def test_paper_cold_digest_mismatch_fails(tmp_path, monkeypatch):
    import offline

    monkeypatch.setattr(offline, "expected_digest", lambda seed, faults: "0" * 64)
    with pytest.raises(CheckFailed, match="digest"):
        offline.run_paper_cold(3, 0.0, False, tmp_path, faults=4)


def test_dr_sweep_smoke(tmp_path):
    import offline

    result = offline.run_dr_sweep(5, 0.0, True, tmp_path, faults=20,
                                  circuits=("s9234",))
    assert result["attempted"] == 20 * 4 * 3 * 2
    assert all(v > 0 for v in result["metrics"].values())
    assert result["layers"]["core.diagnose_calls"] == 24
    assert result["layers"]["bist.events"] > 0
    assert (tmp_path / "dr_sweep-seed5.spans.jsonl").exists()


@pytest.mark.parametrize("base", ["REPLAY", "UPLOAD"])
def test_serve_smoke(tmp_path, base):
    import serve

    spec = dataclasses.replace(
        getattr(serve, base), rates=(20, 40), nominal_rate=20,
        keys=(("s953", "two-step"), ("s953", "random")),
        faults=16, min_nominal_samples=20)
    result = serve.run(spec, 9, 2.0, True, tmp_path)
    assert result["failed"] == 0 and result["attempted"] >= 60
    assert result["detail"]["max_rps_at_slo"] == 40
    assert all(v > 0 for v in result["metrics"].values())
    spans = tmp_path / f"{spec.name}-seed9.spans.jsonl"
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert {"protocol.parse", "protocol.encode", "engine.resolve",
            "engine.response_build", "core.diagnose"} <= names
    layers = result["layers"]
    assert layers["core.diagnose_us"] > 0 and layers["protocol.parse_us"] > 0


def test_run_prints_one_json_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "serve_replay", "--seconds", "2", "--seed", "4",
         "--out", str(ROOT / "bench" / "out" / "test")],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert last["correct"] is True and last["failed"] == 0


def test_run_fails_closed_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_cold",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
