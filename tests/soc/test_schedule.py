"""Tests for daisy-chain test scheduling with per-core pattern budgets."""

import numpy as np
import pytest

from repro.circuit.generate import CircuitProfile, generate_circuit
from repro.sim.bitops import pack_bits
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse
from repro.soc.core_wrapper import EmbeddedCore
from repro.soc.schedule import TestSchedule as Schedule
from repro.soc.schedule import _local_index, _slice_response, diagnose_schedule
from repro.soc.testrail import TestRail as Rail

from .schedule_reference import diagnose_schedule_per_fault, sliced_per_bit

NUM_PATTERNS = 32


def tiny_core(name, n_ff, seed=0, num_patterns=NUM_PATTERNS):
    profile = CircuitProfile(name, 4, 2, n_ff, 50, depth=4)
    return EmbeddedCore(generate_circuit(profile, seed=seed),
                        num_patterns=num_patterns)


def slice_for(response, phase, soc):
    return _slice_response(
        response, phase, _local_index(phase, soc.num_cells))


@pytest.fixture(scope="module")
def soc():
    return Rail(
        "sched",
        [tiny_core("a", 8), tiny_core("b", 6, 1), tiny_core("c", 10, 2)],
        tam_width=2,
    )


class TestPhaseConstruction:
    def test_equal_budgets_single_phase(self, soc):
        schedule = Schedule(soc, {"a": 20, "b": 20, "c": 20})
        assert len(schedule.phases) == 1
        phase = schedule.phases[0]
        assert phase.num_patterns == 20
        assert phase.active_cores == (0, 1, 2)
        assert phase.scan_config.num_cells == soc.num_cells

    def test_staggered_budgets(self, soc):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        assert [p.num_patterns for p in schedule.phases] == [10, 10, 10]
        assert schedule.phases[0].active_cores == (0, 1, 2)
        assert schedule.phases[1].active_cores == (0, 2)
        assert schedule.phases[2].active_cores == (0,)

    def test_bypass_shrinks_chains(self, soc):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        sizes = [p.scan_config.num_cells for p in schedule.phases]
        assert sizes == [24, 18, 8]

    def test_equal_boundary_cores_drop_together(self, soc):
        schedule = Schedule(soc, {"a": 10, "b": 10, "c": 25})
        assert len(schedule.phases) == 2
        assert schedule.phases[1].active_cores == (2,)

    def test_cell_mapping_round_trips(self, soc):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        for phase in schedule.phases:
            for lid, gid in enumerate(phase.global_of_local):
                assert soc.owner(gid).core_index in phase.active_cores
            # phase-local chains reference exactly 0..N-1
            seen = sorted(
                c for chain in phase.scan_config.chains for c in chain
            )
            assert seen == list(range(len(phase.global_of_local)))

    def test_missing_budget_rejected(self, soc):
        with pytest.raises(ValueError, match="no pattern budget"):
            Schedule(soc, {"a": 10, "b": 10})

    def test_budget_above_simulated_patterns_rejected(self, soc):
        with pytest.raises(ValueError, match="exceeds"):
            Schedule(soc, {"a": 10, "b": 10, "c": NUM_PATTERNS + 1})

    def test_describe(self, soc):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        text = schedule.describe()
        assert "3 phase(s)" in text
        assert "patterns 0..9" in text


class TestSliceResponse:
    def test_pattern_window_and_reindexing(self, soc):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        # A cell of core "c" failing at patterns 5 and 15: the phase-0 slice
        # sees pattern 5, the phase-1 slice sees local pattern 5 (= 15).
        gid = soc.global_cell(2, 3)
        response = FaultResponse(
            Fault("X", 0),
            {gid: pack_bits([1 if p in (5, 15) else 0
                             for p in range(NUM_PATTERNS)])},
            NUM_PATTERNS,
        )
        phase0, phase1, phase2 = schedule.phases
        s0 = slice_for(response, phase0, soc)
        s1 = slice_for(response, phase1, soc)
        s2 = slice_for(response, phase2, soc)
        assert len(s0.cell_errors) == 1 and s0.num_patterns == 10
        assert len(s1.cell_errors) == 1 and s1.num_patterns == 10
        assert not s2.detected  # core c is bypassed in phase 2

    def test_inactive_core_cells_dropped(self, soc):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        gid = soc.global_cell(1, 0)  # core b
        response = FaultResponse(
            Fault("X", 0),
            {gid: pack_bits([0] * 15 + [1] + [0] * (NUM_PATTERNS - 16))},
            NUM_PATTERNS,
        )
        # The error is at pattern 15, after core b is bypassed: physically
        # impossible, and the slicing discards it.
        s1 = slice_for(response, schedule.phases[1], soc)
        assert not s1.detected


class TestDiagnoseSchedule:
    def test_soundness_for_each_core(self, soc, rng):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        clipped_responses = []
        for core_index, core in enumerate(soc.cores):
            budget = schedule.budgets[core_index]
            local = core.sample_fault_responses(2, rng)
            for response in local:
                lifted = soc.lift_response(core_index, response)
                # Clip errors to the core's budget window (patterns the
                # schedule actually applies to it).
                clipped = {}
                for cell, vec in lifted.cell_errors.items():
                    bits = [
                        1 if p < budget and (int(vec[p // 64]) >> (p % 64)) & 1
                        else 0
                        for p in range(NUM_PATTERNS)
                    ]
                    if any(bits):
                        clipped[cell] = pack_bits(bits)
                clipped_response = FaultResponse(
                    response.fault, clipped, NUM_PATTERNS
                )
                if clipped_response.detected:
                    clipped_responses.append(clipped_response)
        results = diagnose_schedule(
            clipped_responses, schedule, num_partitions=4, num_groups=4
        )
        assert len(results) == len(clipped_responses)
        assert all(result.sound for result in results)

    def test_candidates_confined_to_active_phases(self, soc, rng):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        core_b = soc.cores[1]
        response = core_b.sample_fault_responses(1, rng)[0]
        lifted = soc.lift_response(1, response)
        [result] = diagnose_schedule(
            [lifted], schedule, num_partitions=4, num_groups=4
        )
        # Phase 2 has only core a active; if the fault is confined to core
        # b's capture window, no phase-2 result exists for it.
        if result.per_phase[2] is not None:
            # Errors after the budget would be unphysical; the slicer only
            # passes them if the raw response had late-pattern errors.
            assert result.detected

    def test_empty_population(self, soc):
        schedule = Schedule(soc, {"a": 30, "b": 10, "c": 20})
        assert diagnose_schedule([], schedule) == []


WIDE_PATTERNS = 150
#: Phase boundaries at 70 and 101: neither is a multiple of 64, and the
#: windows straddle the word boundaries at patterns 64 and 128.
WIDE_BUDGETS = {"a": 150, "b": 70, "c": 101}


@pytest.fixture(scope="module")
def wide_soc():
    return Rail(
        "wide",
        [tiny_core("a", 8, 0, WIDE_PATTERNS),
         tiny_core("b", 6, 1, WIDE_PATTERNS),
         tiny_core("c", 10, 2, WIDE_PATTERNS)],
        tam_width=2,
    )


def wide_population(soc, seed):
    """Lifted stuck-at responses of every core, unclipped (so bypassed
    cores leave late errors for the slicer to drop), one random error
    matrix over every cell and an undetected response."""
    rng = np.random.default_rng(seed)
    population = [
        soc.lift_response(k, response)
        for k, core in enumerate(soc.cores)
        for response in core.sample_fault_responses(4, rng)
    ]
    bits = rng.random((soc.num_cells, WIDE_PATTERNS)) < 0.02
    population.append(FaultResponse(
        Fault("R", 0),
        {cell: pack_bits(row) for cell, row in enumerate(bits) if row.any()},
        WIDE_PATTERNS,
    ))
    population.append(FaultResponse(Fault("U", 1), {}, WIDE_PATTERNS))
    return population


class TestScheduleMatchesReference:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_slices_match_per_bit_reference(self, wide_soc, seed):
        schedule = Schedule(wide_soc, WIDE_BUDGETS)
        assert [p.first_pattern for p in schedule.phases] == [0, 70, 101]
        for response in wide_population(wide_soc, seed):
            for phase in schedule.phases:
                fast = slice_for(response, phase, wide_soc)
                slow = sliced_per_bit(response, phase)
                assert fast.num_patterns == slow.num_patterns
                assert list(fast.cell_errors) == list(slow.cell_errors)
                for lid, vec in slow.cell_errors.items():
                    np.testing.assert_array_equal(fast.cell_errors[lid], vec)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_population_matches_per_fault_reference(self, wide_soc, seed):
        schedule = Schedule(wide_soc, WIDE_BUDGETS)
        population = wide_population(wide_soc, seed)
        kwargs = dict(num_partitions=4, num_groups=4, misr_width=16)
        results = diagnose_schedule(population, schedule, **kwargs)
        assert len(results) == len(population)
        some_phase_silent = False
        for response, result in zip(population, results):
            expected = diagnose_schedule_per_fault(response, schedule, **kwargs)
            assert result.actual_cells == expected.actual_cells
            assert result.candidate_cells == expected.candidate_cells
            assert len(result.per_phase) == len(schedule.phases)
            for got, want in zip(result.per_phase, expected.per_phase):
                assert (got is None) == (want is None)
                some_phase_silent |= got is None
                if want is not None:
                    assert got.candidate_cells == want.candidate_cells
                    assert got.candidate_history == want.candidate_history
        assert some_phase_silent
        assert not results[-1].candidate_cells  # the undetected response
