"""End-to-end telemetry over the real pipeline: stage coverage when
tracing, strict silence when not, and numbers identical either way."""

from __future__ import annotations

import pytest

from repro.experiments import default_config
from repro.experiments import cache
from repro.experiments.runner import build_circuit_workload, evaluate_scheme
from repro.experiments.table1 import run_table1
from repro.telemetry import (
    FLIGHT,
    METRICS,
    enable_tracing,
    span_rollup,
    trace_enabled,
)


@pytest.fixture
def small_config(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.2")
    return default_config(num_faults=4, num_faults_large=4)


class TestTracedRun:
    def test_table1_covers_pipeline_stages(self, small_config):
        enable_tracing()
        cache.clear()
        run_table1(small_config)
        names = {row["name"] for row in span_rollup()}
        expected = {
            "workload.build", "netlist.compile", "fault.sample",
            "partitions.generate", "diagnose", "dr.score",
        }
        assert expected <= names, f"missing stages: {expected - names}"

    def test_superposition_effect_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.2")
        config = default_config(num_faults=12, num_faults_large=12)
        key = "superposition.pruned_cells{scheme=random}"
        start = METRICS.snapshot()["counters"].get(key, 0)
        enable_tracing()
        workload = build_circuit_workload("s5378", config)
        evaluation = evaluate_scheme(
            workload, "random", 2, 4, config, with_pruning=True
        )
        before = sum(len(r.candidate_cells) for r in evaluation.results)
        after = sum(len(r.candidate_cells) for r in evaluation.pruned_results)
        assert after < before
        [row] = [r for r in span_rollup() if r["name"] == "superposition.prune"]
        assert row["counters"] == {"candidates_in": before,
                                   "candidates_out": after}
        pruned = METRICS.snapshot()["counters"][key] - start
        assert pruned == before - after

    def test_fault_sim_record_files_faults_once(self):
        from repro.circuit.library import get_circuit
        from repro.sim.faults import collapse_faults
        from repro.soc.core_wrapper import EmbeddedCore

        core = EmbeddedCore(get_circuit("s27"), num_patterns=64)
        faults = collapse_faults(core.netlist)[:12]
        enable_tracing()
        responses = core.fault_simulator.simulate_faults(faults)
        [record] = [r for r in FLIGHT.since() if r["name"] == "fault.sim"]
        assert record["faults"] == len(faults)
        assert record["counters"] == {
            "detected": sum(1 for r in responses if r.detected)}

    def test_cache_and_session_metrics_recorded(self, small_config):
        cache.clear()
        run_table1(small_config)
        snap = METRICS.snapshot()
        assert any(k.startswith("cache.misses") for k in snap["counters"])
        assert snap["counters"].get("session.sessions_compacted", 0) > 0
        assert snap["counters"].get("faultsim.faults", 0) > 0
        assert snap["counters"].get("diagnosis.faults", 0) > 0
        # Second run: the workload and partition stores must hit.
        run_table1(small_config)
        stats = cache.stats()
        assert stats.hits.get("workload", 0) >= 1
        assert stats.hit_rate("workload") > 0
        assert stats.entries > 0
        assert stats.evictions == 0


class TestDisabledRun:
    def test_no_spans_no_stderr_and_identical_dr(self, small_config, capsys):
        assert not trace_enabled()
        cache.clear()
        untraced = run_table1(small_config)
        assert FLIGHT.since() == []
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""
        # Tracing on changes nothing about the numbers.
        enable_tracing()
        cache.clear()
        traced = run_table1(small_config)
        assert traced.dr == untraced.dr
