"""The embedded core builds its compiled circuit, golden simulation and
fault simulator lazily, each once."""

import numpy as np
import pytest

from repro.bist.patterns import fast_pattern_matrices
from repro.circuit.generate import CircuitProfile, generate_circuit
from repro.soc import core_wrapper
from repro.soc.core_wrapper import EmbeddedCore
from repro.soc.stitch import build_stitched_soc


@pytest.fixture
def compile_count(monkeypatch):
    """Counts every CompiledCircuit a core builds."""
    counter = {"n": 0}
    original = core_wrapper.CompiledCircuit

    def counting(netlist):
        counter["n"] += 1
        return original(netlist)

    monkeypatch.setattr(core_wrapper, "CompiledCircuit", counting)
    return counter


def make_core(num_patterns=16):
    profile = CircuitProfile("lazy", 4, 2, 10, 40, depth=4)
    return EmbeddedCore(generate_circuit(profile, seed=3),
                        num_patterns=num_patterns)


class TestLazyCore:
    def test_stitched_core_compiles_only_when_sampled(self, compile_count):
        soc = build_stitched_soc(["s953", "s838"], num_patterns=8, scale=0.2)
        assert compile_count["n"] == 0
        assert soc.num_cells == sum(len(c.netlist.flip_flops) for c in soc.cores)
        soc.cores[0].sample_fault_responses(2, np.random.default_rng(0))
        assert compile_count["n"] == 1

    def test_state_built_once(self, compile_count, monkeypatch):
        collapses = {"n": 0}
        original = core_wrapper.CollapsedFaults

        def counting(netlist):
            collapses["n"] += 1
            return original(netlist)

        monkeypatch.setattr(core_wrapper, "CollapsedFaults", counting)
        core = make_core()
        simulator = core.fault_simulator
        assert core.fault_simulator is simulator
        assert core.compiled is simulator.compiled
        assert core.good is simulator.good
        assert core.collapsed_faults() is core.collapsed_faults()
        core.sample_fault_responses(3, np.random.default_rng(1))
        assert compile_count["n"] == 1
        assert collapses["n"] == 1

    def test_good_is_the_seeded_pattern_simulation(self):
        core = make_core()
        pi, ff = fast_pattern_matrices(
            core.compiled.num_inputs, core.num_cells, core.num_patterns,
            seed=core.pattern_seed ^ core_wrapper._name_seed(core.name),
        )
        expected = core.compiled.simulate(pi, ff, core.num_patterns)
        assert np.array_equal(core.good.values, expected.values)

    def test_num_cells_without_compiling(self, compile_count):
        core = make_core()
        assert core.num_cells == 10
        assert compile_count["n"] == 0
        assert core.num_cells == core.compiled.num_scan_cells
