"""Equivalence tests: fault-batched cone kernel vs the event-driven oracle.

The batched kernel must produce bit-identical error matrices to
``FaultSimulator.simulate_fault`` for randomized fault populations, on
multiple ISCAS circuits.
"""

import numpy as np
import pytest

from repro.circuit.library import get_circuit
from repro.sim.faults import collapse_faults
from repro.sim import faultsim_batch
from repro.sim.faultsim_batch import (
    plan_batches,
    simulate_batch,
    simulate_faults_batched,
)
from repro.soc.core_wrapper import EmbeddedCore


def assert_identical(event, batched):
    assert len(event) == len(batched)
    for a, b in zip(event, batched):
        assert a.fault == b.fault
        assert a.num_patterns == b.num_patterns
        assert set(a.cell_errors) == set(b.cell_errors)
        for cell in a.cell_errors:
            assert np.array_equal(a.cell_errors[cell], b.cell_errors[cell])


def sampled_population(name, num_patterns, count, seed):
    core = EmbeddedCore(get_circuit(name), num_patterns=num_patterns)
    faults = collapse_faults(core.netlist)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(faults), size=min(count, len(faults)), replace=False)
    return core.fault_simulator, [faults[i] for i in idx]


class TestPlanBatches:
    def test_covers_every_fault_once(self):
        sim, faults = sampled_population("s27", 64, 30, seed=3)
        batches = plan_batches(sim, faults, 8)
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(len(faults)))
        assert all(len(batch) <= 8 for batch in batches)

    def test_deterministic(self):
        sim, faults = sampled_population("s27", 64, 30, seed=3)
        assert plan_batches(sim, faults, 8) == plan_batches(sim, faults, 8)

    def test_sorted_by_site_topology(self):
        sim, faults = sampled_population("s27", 64, 30, seed=3)
        net_index = sim.compiled.net_index
        order = [i for batch in plan_batches(sim, faults, 8) for i in batch]
        sites = [net_index[faults[i].site] for i in order]
        assert sites == sorted(sites)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("name,patterns", [("s27", 100), ("s953", 128)])
    def test_bit_identical_to_event_driven(self, name, patterns, monkeypatch):
        sim, faults = sampled_population(name, patterns, 120, seed=11)
        event = [sim.simulate_fault(f) for f in faults]
        for batch_size in (1, 2, 7, 32):
            monkeypatch.setattr(faultsim_batch, "DEFAULT_BATCH", batch_size)
            batched = simulate_faults_batched(sim, faults)
            assert_identical(event, batched)

    def test_single_batch_kernel(self):
        sim, faults = sampled_population("s27", 64, 12, seed=5)
        event = [sim.simulate_fault(f) for f in faults]
        batched = simulate_batch(sim, faults)
        assert_identical(event, batched)

    def test_non_word_multiple_patterns_tail_clean(self, monkeypatch):
        # 100 patterns leaves 28 unused tail bits; no error vector may
        # ever set them.
        from repro.sim.bitops import pattern_mask

        monkeypatch.setattr(faultsim_batch, "DEFAULT_BATCH", 16)
        sim, faults = sampled_population("s953", 100, 60, seed=23)
        mask = pattern_mask(100)
        for response in simulate_faults_batched(sim, faults):
            for vec in response.cell_errors.values():
                assert np.array_equal(vec & mask, vec)

    def test_simulate_faults_dispatches_to_batched(self):
        from repro.telemetry import METRICS

        sim, faults = sampled_population("s27", 64, 20, seed=9)
        before = METRICS.snapshot()
        via_dispatch = sim.simulate_faults(faults)
        delta = METRICS.diff(before)
        assert delta["counters"].get("faultsim.batches") == len(
            plan_batches(sim, faults, faultsim_batch.DEFAULT_BATCH)
        )
        event = [sim.simulate_fault(f) for f in faults]
        assert_identical(event, via_dispatch)
