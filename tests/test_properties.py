"""Cross-stack property tests: invariants that must hold end to end,
from generated circuit through fault simulation to diagnosis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.misr import LinearCompactor
from repro.bist.patterns import fast_pattern_matrices
from repro.bist.scan import ScanConfig
from repro.circuit.generate import CircuitProfile, generate_circuit
from repro.core.diagnosis import diagnose
from repro.core.superposition import apply_superposition
from repro.core.two_step import make_partitioner
from repro.sim.faults import collapse_faults
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import CompiledCircuit
from repro.soc.schedule import TestSchedule as Schedule
from repro.soc.schedule import diagnose_schedule
from repro.soc.core_wrapper import EmbeddedCore
from repro.soc.testrail import TestRail as SocRail


def build_responses(seed, n_ff=16, n_gates=90, num_patterns=24, max_faults=6):
    """Real fault responses from a freshly generated circuit."""
    profile = CircuitProfile(f"prop{seed}", 5, 3, n_ff, n_gates, depth=5)
    netlist = generate_circuit(profile, seed=seed)
    compiled = CompiledCircuit(netlist)
    pi, ff = fast_pattern_matrices(
        compiled.num_inputs, compiled.num_scan_cells, num_patterns, seed=seed
    )
    good = compiled.simulate(pi, ff, num_patterns)
    sim = FaultSimulator(compiled, good)
    rng = np.random.default_rng(seed)
    faults = collapse_faults(netlist)
    rng.shuffle(faults)
    responses = []
    for fault in faults:
        response = sim.simulate_fault(fault)
        if response.detected:
            responses.append(response)
        if len(responses) >= max_faults:
            break
    return compiled, responses


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**10),
    scheme=st.sampled_from(["random", "interval", "two-step", "deterministic"]),
    num_partitions=st.integers(1, 5),
)
def test_end_to_end_soundness(seed, scheme, num_partitions):
    """Real circuit, real faults, every scheme: no failing cell is ever
    pruned under exact comparison."""
    compiled, responses = build_responses(seed)
    config = ScanConfig.single_chain(compiled.num_scan_cells)
    partitions = make_partitioner(scheme, config.max_length, 4).partitions(
        num_partitions
    )
    for response in responses:
        result = diagnose(response, config, partitions, compactor=None)
        assert result.sound


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**10))
def test_partition_order_does_not_matter(seed):
    """Intersection pruning commutes: shuffling the partition sequence
    leaves the final candidate set unchanged."""
    compiled, responses = build_responses(seed, max_faults=3)
    config = ScanConfig.single_chain(compiled.num_scan_cells)
    partitions = make_partitioner("two-step", config.max_length, 4).partitions(4)
    rng = np.random.default_rng(seed)
    shuffled = list(partitions)
    rng.shuffle(shuffled)
    for response in responses:
        forward = diagnose(response, config, partitions, compactor=None)
        scrambled = diagnose(response, config, shuffled, compactor=None)
        assert forward.candidate_cells == scrambled.candidate_cells


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**10))
def test_appending_partitions_never_grows_candidates(seed):
    compiled, responses = build_responses(seed, max_faults=3)
    config = ScanConfig.single_chain(compiled.num_scan_cells)
    gen = make_partitioner("random", config.max_length, 4)
    few = gen.partitions(2)
    more = few + gen.partitions(2)
    for response in responses:
        small = diagnose(response, config, few, compactor=None)
        large = diagnose(response, config, more, compactor=None)
        assert large.candidate_cells <= small.candidate_cells


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**10))
def test_superposition_is_idempotent(seed):
    compiled, responses = build_responses(seed, max_faults=3)
    config = ScanConfig.single_chain(compiled.num_scan_cells)
    partitions = make_partitioner("two-step", config.max_length, 4).partitions(3)
    compactor = LinearCompactor(24, 1)
    for response in responses:
        result = diagnose(response, config, partitions, compactor)
        [once] = apply_superposition([result], config)
        [twice] = apply_superposition([once], config)
        assert once.candidate_cells == twice.candidate_cells


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**10), chains=st.integers(1, 4))
def test_chain_count_does_not_break_soundness(seed, chains):
    compiled, responses = build_responses(seed, max_faults=3)
    config = ScanConfig.balanced(compiled.num_scan_cells, chains)
    partitions = make_partitioner(
        "two-step", config.max_length, 4
    ).partitions(3)
    compactor = LinearCompactor(24, chains)
    for response in responses:
        result = diagnose(response, config, partitions, compactor)
        assert result.sound


class TestScheduleEquivalence:
    def test_single_phase_schedule_matches_plain_diagnosis(self, rng):
        profile = CircuitProfile("sched-eq", 4, 2, 10, 50, depth=4)
        core = EmbeddedCore(generate_circuit(profile, seed=1), num_patterns=16)
        rail = SocRail("eq", [core], tam_width=1)
        schedule = Schedule(rail, {core.name: 16})
        assert len(schedule.phases) == 1
        lifted = [
            rail.lift_response(0, response)
            for response in core.sample_fault_responses(3, rng)
        ]
        via_schedule = diagnose_schedule(
            lifted, schedule, scheme="two-step", num_partitions=3,
            num_groups=4, misr_width=24,
        )
        partitions = make_partitioner(
            "two-step", rail.scan_config.max_length, 4
        ).partitions(3)
        for response, scheduled in zip(lifted, via_schedule):
            plain = diagnose(
                response, rail.scan_config, partitions, LinearCompactor(24, 1)
            )
            assert scheduled.candidate_cells == plain.candidate_cells
