"""Equivalence properties for the performance layer (PR 1).

The vectorized session kernels and the workload/partition cache are
*pure optimizations*: every one of them must produce bit-identical
signatures, candidate sets and DR values to the scalar, uncached
reference paths.  These tests pin that contract on
randomized workloads.
"""

import numpy as np
import pytest

from repro.bist.misr import LinearCompactor, ParityCompactor
from repro.bist.scan import ScanConfig
from repro.bist.session import (
    ErrorEvents,
    collect_error_event_arrays,
    collect_error_events,
    run_partition_sessions,
    run_partition_sessions_scalar,
)
from repro.experiments.cache import cache_stats, clear_caches
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_circuit_workload,
    evaluate_scheme,
    scheme_partitions,
)
from repro.sim.bitops import WORD_BITS, pack_bits
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse, FaultSimulator
from repro.sim.logicsim import CompiledCircuit

from .sim.pergate_reference import simulate_faults_pergate, simulate_pergate

TINY = ExperimentConfig(num_faults=10, num_faults_large=4, scale=0.1)


def random_response(rng, num_cells, num_patterns, max_cells=6):
    """A FaultResponse with random error events."""
    n_cells = int(rng.integers(1, max_cells + 1))
    cells = rng.choice(num_cells, n_cells, replace=False)
    cell_errors = {}
    for cell in cells:
        n_pats = int(rng.integers(1, min(num_patterns, 9)))
        pats = set(int(p) for p in rng.choice(num_patterns, n_pats, replace=False))
        cell_errors[int(cell)] = pack_bits(
            [1 if p in pats else 0 for p in range(num_patterns)]
        )
    return FaultResponse(Fault("X", 0), cell_errors, num_patterns)


def reference_collect_events(response, scan_config):
    """The pre-vectorization per-bit event extraction loop."""
    events = []
    for cell, vec in response.cell_errors.items():
        loc = scan_config.location(cell)
        for word_idx in range(len(vec)):
            word = int(vec[word_idx])
            while word:
                low = word & -word
                bit = low.bit_length() - 1
                pattern = word_idx * WORD_BITS + bit
                events.append(
                    (loc.position, loc.chain, scan_config.global_cycle(cell, pattern))
                )
                word ^= low
    return events


class TestVectorizedEventCollection:
    @pytest.mark.parametrize("trial", range(10))
    def test_matches_reference_loop(self, rng, trial):
        num_cells = int(rng.integers(4, 40))
        num_patterns = int(rng.integers(2, 130))
        chains = int(rng.integers(1, 4))
        config = (
            ScanConfig.single_chain(num_cells)
            if chains == 1
            else ScanConfig.balanced(num_cells, chains)
        )
        response = random_response(rng, num_cells, num_patterns)
        assert collect_error_events(response, config) == reference_collect_events(
            response, config
        )

    def test_empty_response(self):
        config = ScanConfig.single_chain(4)
        response = FaultResponse(Fault("X", 0), {}, 8)
        assert collect_error_events(response, config) == []
        assert len(collect_error_event_arrays(response, config)) == 0


class TestVectorizedSessions:
    @pytest.mark.parametrize("compactor_kind", ["misr", "parity", "exact"])
    @pytest.mark.parametrize("trial", range(5))
    def test_matches_scalar_kernel(self, rng, compactor_kind, trial):
        num_cells = int(rng.integers(8, 40))
        num_patterns = int(rng.integers(2, 33))
        num_chains = int(rng.integers(1, 4))
        num_groups = int(rng.integers(2, 6))
        config = ScanConfig.balanced(num_cells, num_chains)
        response = random_response(rng, num_cells, num_patterns)
        events = collect_error_event_arrays(response, config)
        group_of = rng.integers(0, num_groups, config.max_length).astype(np.int32)
        total = config.total_cycles(num_patterns)
        if compactor_kind == "misr":
            compactor = LinearCompactor(24, num_chains)
        elif compactor_kind == "parity":
            compactor = ParityCompactor(num_chains)
        else:
            compactor = None
        fast = run_partition_sessions(
            events, group_of, num_groups, total, compactor, num_channels=num_chains
        )
        slow = run_partition_sessions_scalar(
            events.as_tuples(), group_of, num_groups, total, compactor,
            num_channels=num_chains,
        )
        assert fast.signatures == slow.signatures
        assert fast.failing_pairs == slow.failing_pairs
        np.testing.assert_array_equal(
            fast.failing_matrix(num_chains), slow.failing_matrix(num_chains)
        )

    def test_batch_impulse_matches_scalar(self, rng):
        compactor = LinearCompactor(16, 3)
        channels = rng.integers(0, 3, 64)
        steps = rng.integers(0, 5000, 64)
        batch = compactor.batch_impulse_responses(channels, steps)
        for c, s, b in zip(channels, steps, batch):
            assert int(b) == compactor.impulse_response(int(c), int(s))

    def test_tuple_and_array_inputs_agree(self, rng):
        config = ScanConfig.balanced(12, 2)
        response = random_response(rng, 12, 16)
        tuples = collect_error_events(response, config)
        arrays = ErrorEvents.from_tuples(tuples)
        group_of = rng.integers(0, 3, config.max_length).astype(np.int32)
        total = config.total_cycles(16)
        compactor = LinearCompactor(16, 2)
        a = run_partition_sessions(tuples, group_of, 3, total, compactor, 2)
        b = run_partition_sessions(arrays, group_of, 3, total, compactor, 2)
        assert a.signatures == b.signatures


class TestWorkloadCache:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_workload_built_once(self):
        first = build_circuit_workload("s953", TINY)
        second = build_circuit_workload("s953", TINY)
        assert second is first
        stats = cache_stats()
        assert stats.misses.get("workload") == 1
        assert stats.hits.get("workload") == 1

    def test_distinct_keys_not_shared(self):
        base = build_circuit_workload("s953", TINY)
        other = build_circuit_workload("s953", TINY, num_patterns=32)
        assert other is not base
        assert other.num_patterns == 32

    def test_disabled_cache_matches_enabled(self, monkeypatch):
        cached = build_circuit_workload("s953", TINY)
        monkeypatch.setenv("REPRO_CACHE", "0")
        fresh = build_circuit_workload("s953", TINY)
        assert fresh is not cached
        assert len(fresh.responses) == len(cached.responses)
        for a, b in zip(fresh.responses, cached.responses):
            assert a.fault == b.fault
            assert set(a.cell_errors) == set(b.cell_errors)
            for cell in a.cell_errors:
                np.testing.assert_array_equal(a.cell_errors[cell], b.cell_errors[cell])

    def test_partitions_cached_and_equal(self):
        first = scheme_partitions("two-step", 50, 4, 5)
        second = scheme_partitions("two-step", 50, 4, 5)
        assert second is not first  # fresh outer list
        assert len(second) == len(first)
        for a, b in zip(first, second):
            assert a is b  # shared frozen partitions
        fresh = scheme_partitions("two-step", 50, 4, 5, seed=99)
        assert fresh[0] is not first[0]

    def test_cached_run_reproduces_uncached_dr(self, monkeypatch):
        warm = build_circuit_workload("s953", TINY)
        warm_eval = evaluate_scheme(warm, "two-step", 4, 4, TINY)
        monkeypatch.setenv("REPRO_CACHE", "0")
        cold = build_circuit_workload("s953", TINY)
        cold_eval = evaluate_scheme(cold, "two-step", 4, 4, TINY)
        assert warm_eval.dr == cold_eval.dr
        for a, b in zip(warm_eval.results, cold_eval.results):
            assert a.candidate_cells == b.candidate_cells
            assert a.actual_cells == b.actual_cells


def per_fault_simulate_faults(self, faults):
    """``FaultSimulator.simulate_faults`` as the event-driven loop."""
    return [self.simulate_fault(fault) for fault in faults]


class TestFaultBatchedEvaluation:
    """The fault-batched kernel (PR 4) is a pure optimization too: every
    end-to-end number must match the event-driven path exactly."""

    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_evaluate_scheme_batched_vs_event(self, monkeypatch):
        batched = evaluate_scheme(
            build_circuit_workload("s953", TINY), "two-step", 3, 4, TINY
        )
        monkeypatch.setattr(
            FaultSimulator, "simulate_faults", per_fault_simulate_faults
        )
        clear_caches()
        event = evaluate_scheme(
            build_circuit_workload("s953", TINY), "two-step", 3, 4, TINY
        )
        assert event.dr == batched.dr
        for a, b in zip(event.results, batched.results):
            assert a.candidate_cells == b.candidate_cells
            assert a.candidate_history == b.candidate_history


class TestSoAEvaluation:
    """The SoA gate-eval kernel (PR 6) is a pure optimization as well:
    end-to-end DR and candidate sets must match the per-gate path."""

    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_evaluate_scheme_soa_vs_pergate(self, monkeypatch):
        via_soa = evaluate_scheme(
            build_circuit_workload("s953", TINY), "two-step", 3, 4, TINY
        )
        monkeypatch.setattr(CompiledCircuit, "simulate", simulate_pergate)
        monkeypatch.setattr(
            FaultSimulator, "simulate_faults", simulate_faults_pergate
        )
        clear_caches()
        per_gate = evaluate_scheme(
            build_circuit_workload("s953", TINY), "two-step", 3, 4, TINY
        )
        assert per_gate.dr == via_soa.dr
        for a, b in zip(per_gate.results, via_soa.results):
            assert a.candidate_cells == b.candidate_cells
            assert a.candidate_history == b.candidate_history


class TestDiskCacheEquivalence:
    """Values served from the persistent disk tier must be bit-identical
    to freshly built ones, end to end."""

    def test_disk_warm_run_reproduces_cold_dr(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", str(tmp_path / "dc"))
        clear_caches()
        cold = evaluate_scheme(
            build_circuit_workload("s953", TINY), "two-step", 3, 4, TINY
        )
        clear_caches()  # memory gone; next build comes off disk
        warm = evaluate_scheme(
            build_circuit_workload("s953", TINY), "two-step", 3, 4, TINY
        )
        clear_caches()
        assert cold.dr == warm.dr
        for a, b in zip(cold.results, warm.results):
            assert a.candidate_cells == b.candidate_cells
            assert a.num_sessions == b.num_sessions


class TestPopcount:
    def test_matches_unpackbits_reference(self, rng):
        from repro.sim import bitops

        for _ in range(10):
            vec = rng.integers(
                0, np.iinfo(np.uint64).max, size=int(rng.integers(1, 9)),
                dtype=np.uint64, endpoint=True,
            )
            reference = int(np.unpackbits(vec.view(np.uint8)).sum())
            assert bitops.popcount(vec) == reference
            # The byte-LUT fallback must agree with whichever path is active.
            assert int(bitops._BYTE_POPCOUNT[vec.view(np.uint8)].sum()) == reference
