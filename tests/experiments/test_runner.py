"""Tests for shared experiment machinery (workloads, scheme evaluation)."""

import gc
import weakref

import numpy as np
import pytest

from repro.circuit.generate import generate_circuit
from repro.circuit.library import PROFILES, get_circuit
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_circuit_workload,
    build_soc_workloads,
    evaluate_scheme,
    hash_name,
    scheme_partitions,
)
from repro.soc.core_wrapper import EmbeddedCore
from repro.soc.stitch import build_stitched_soc
from repro.soc.testrail import TestRail as Rail

TINY = ExperimentConfig(num_faults=8, num_faults_large=4, scale=0.1)


@pytest.fixture(scope="module")
def workload():
    return build_circuit_workload("s953", TINY)


class TestWorkloads:
    def test_circuit_workload_shape(self, workload):
        assert workload.scan_config.num_chains == 1
        assert workload.num_cells == workload.scan_config.max_length
        assert 0 < len(workload.responses) <= 8
        assert all(r.detected for r in workload.responses)

    def test_soc_workloads_one_per_core(self):
        soc = build_stitched_soc(["s953", "s838"], num_patterns=16, scale=0.1)
        workloads = build_soc_workloads(soc, TINY)
        assert set(workloads) == {"s953", "s838"}
        for name, wl in workloads.items():
            assert wl.scan_config is soc.scan_config
            core_index = [c.name for c in soc.cores].index(name)
            core_cells = set(soc.core_cells(core_index))
            for response in wl.responses:
                assert set(response.cell_errors) <= core_cells


def assert_same_responses(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.fault == want.fault
        assert sorted(got.cell_errors) == sorted(want.cell_errors)
        for cell, vec in want.cell_errors.items():
            assert np.array_equal(got.cell_errors[cell], vec)


class TestSocFaultSample:
    """SOC workloads reuse the circuit workload's fault sample only for a
    core that is the library circuit under the config's pattern set."""

    def own_sample(self, soc, core_index, config):
        core = soc.cores[core_index]
        rng = np.random.default_rng(config.fault_seed ^ hash_name(core.name))
        local = core.sample_fault_responses(config.faults_for(core.name), rng)
        return [soc.lift_response(core_index, r) for r in local]

    def test_library_cores_take_the_circuit_workload_sample(self):
        soc = build_stitched_soc(["s953", "s838"],
                                 num_patterns=TINY.num_patterns, scale=0.1)
        workloads = build_soc_workloads(soc, TINY)
        for index, core in enumerate(soc.cores):
            circuit = build_circuit_workload(core.name, TINY).responses
            lifted = [soc.lift_response(index, r) for r in circuit]
            assert_same_responses(workloads[core.name].responses, lifted)
            # ... which is exactly what the core samples on itself.
            assert_same_responses(lifted, self.own_sample(soc, index, TINY))

    @pytest.mark.parametrize("variant", ["custom-netlist", "pattern-seed",
                                         "pattern-count"])
    def test_other_cores_sample_on_themselves(self, variant, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reused the circuit workload sample")

        monkeypatch.setattr(runner, "build_circuit_workload", refuse)
        config = ExperimentConfig(num_faults=6, scale=0.1, fault_seed=77)
        if variant == "custom-netlist":
            # A different netlist that carries a library name.
            netlist = generate_circuit(PROFILES["s953"].scaled(0.1), seed=5)
            soc = Rail("custom", [EmbeddedCore(
                netlist, num_patterns=config.num_patterns)], tam_width=1)
        elif variant == "pattern-seed":
            soc = build_stitched_soc(["s953"], num_patterns=config.num_patterns,
                                     pattern_seed=0xBEEF, scale=0.1)
        else:
            soc = build_stitched_soc(["s953"], num_patterns=32, scale=0.1)
        workloads = build_soc_workloads(soc, config)
        assert_same_responses(workloads["s953"].responses,
                              self.own_sample(soc, 0, config))


def test_memo_store_retains_no_core_state(monkeypatch):
    """Workloads keep fault responses only: the cores that sampled them,
    their compiled circuits and fault simulators are garbage afterwards."""
    refs = []

    class Tracked(EmbeddedCore):
        def sample_fault_responses(self, *args, **kwargs):
            out = super().sample_fault_responses(*args, **kwargs)
            refs.extend(weakref.ref(obj) for obj in
                        (self, self.compiled, self.fault_simulator))
            return out

    monkeypatch.setattr(runner, "EmbeddedCore", Tracked)
    config = ExperimentConfig(num_faults=4, scale=0.1, fault_seed=991)
    build_circuit_workload("s953", config)
    soc = Rail("tracked", [Tracked(get_circuit("s838", scale=0.1),
                                   num_patterns=16)], tam_width=1)
    build_soc_workloads(soc, config)
    del soc
    gc.collect()
    assert len(refs) == 6
    assert all(ref() is None for ref in refs)


class TestSchemePartitions:
    def test_counts_and_length(self):
        parts = scheme_partitions("two-step", 50, 4, 5)
        assert len(parts) == 5
        assert all(p.length == 50 for p in parts)

    def test_num_interval_partitions_forwarded(self):
        parts = scheme_partitions(
            "two-step", 50, 4, 4, num_interval_partitions=2
        )
        assert [p.scheme for p in parts[:2]] == ["interval", "interval"]


class TestEvaluateScheme:
    def test_dr_finite_and_results_complete(self, workload):
        evaluation = evaluate_scheme(workload, "two-step", 4, 4, TINY)
        assert evaluation.dr >= 0 or evaluation.dr > -1  # finite
        assert len(evaluation.results) == len(workload.responses)
        assert evaluation.dr_pruned is None

    def test_with_pruning(self, workload):
        evaluation = evaluate_scheme(
            workload, "random", 4, 4, TINY, with_pruning=True
        )
        assert evaluation.dr_pruned is not None
        assert evaluation.dr_pruned <= evaluation.dr + 1e-9
        assert len(evaluation.pruned_results) == len(evaluation.results)

    def test_soundness_across_schemes(self, workload):
        for scheme in ("random", "interval", "two-step", "deterministic"):
            evaluation = evaluate_scheme(workload, scheme, 3, 4, TINY)
            assert all(r.sound for r in evaluation.results)
