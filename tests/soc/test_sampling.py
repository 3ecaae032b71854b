"""The index-based fault samplers draw exactly what shuffling or choosing
from the materialised collapsed fault list did: same faults, same
responses, same RNG state afterwards."""

import numpy as np
import pytest

from repro.circuit.generate import CircuitProfile, generate_circuit
from repro.circuit.library import get_circuit
from repro.experiments.atpg_topup import AtpgTopupRow, run_atpg_topup
from repro.experiments.config import ExperimentConfig
from repro.sim.coverage import coverage_report
from repro.sim.faults import CollapsedFaults, collapse_faults, sample_faults
from repro.soc.core_wrapper import EmbeddedCore

from .sampling_reference import (chosen_subset, shuffled_fault_responses,
                                  shuffled_prefix)

CIRCUITS = {
    "s27": lambda: get_circuit("s27"),
    "s953@0.3": lambda: get_circuit("s953", scale=0.3),
    "s1423@0.2": lambda: get_circuit("s1423", scale=0.2),
    "tiny": lambda: generate_circuit(CircuitProfile("tiny-sample", 3, 2, 6, 24,
                                                    depth=3), seed=5),
}


def same_responses(got, want):
    assert [r.fault for r in got] == [r.fault for r in want]
    for a, b in zip(got, want):
        assert a.failing_cells == b.failing_cells
        for cell in a.failing_cells:
            assert np.array_equal(a.cell_errors[cell], b.cell_errors[cell])


@pytest.mark.parametrize("name", sorted(CIRCUITS))
@pytest.mark.parametrize("count", [1, 7, 40, 10**6])
@pytest.mark.parametrize("detected_only", [True, False])
def test_sampler_matches_list_shuffle(name, count, detected_only):
    core = EmbeddedCore(CIRCUITS[name](), num_patterns=32)
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = core.sample_fault_responses(count, got_rng, detected_only=detected_only)
    want = shuffled_fault_responses(core, count, want_rng, detected_only)
    same_responses(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if count >= len(core.collapsed_faults()) and not detected_only:
        assert len(got) == len(core.collapsed_faults())


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_lazy_universe_is_the_collapsed_list(name):
    netlist = CIRCUITS[name]()
    universe = CollapsedFaults(netlist)
    faults = collapse_faults(netlist)
    assert len(universe) == len(faults)
    assert [universe[i] for i in range(len(universe))] == faults
    assert universe[-1] == faults[-1] and universe[2:9] == faults[2:9]
    with pytest.raises(IndexError):
        universe[len(universe)]


@pytest.mark.parametrize("count", [5, 60, 10**6])
def test_index_prefix_matches_list_shuffle(count):
    universe = CollapsedFaults(get_circuit("s953", scale=0.3))
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = [universe[i] for i in got_rng.permutation(len(universe))[:count]]
    assert got == shuffled_prefix(list(universe), count, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("count", [5, 60, 10**6])
def test_coverage_sample_matches_list_choice(count):
    core = EmbeddedCore(get_circuit("s953", scale=0.3), num_patterns=32)
    report = coverage_report(core.fault_simulator, max_faults=count,
                             rng=np.random.default_rng(4))
    faults = chosen_subset(collapse_faults(core.netlist), count,
                           np.random.default_rng(4))
    assert [p.fault for p in report.profiles] == faults
    assert sample_faults(core.collapsed_faults(), count,
                         np.random.default_rng(4)) == faults


def test_atpg_topup_sample_unchanged():
    # Row computed by the list-shuffle implementation of the sampler.
    config = ExperimentConfig(num_faults=12, num_faults_large=6)
    result = run_atpg_topup(("s953",), config=config, max_missed=10)
    assert result.rows == [AtpgTopupRow(
        circuit="s953", faults_sampled=24, random_coverage=0.625, missed=9,
        podem_testable=1, combined_coverage=0.6666666666666666,
    )]
