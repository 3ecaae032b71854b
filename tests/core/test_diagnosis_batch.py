"""Equivalence tests for the population-fused diagnosis kernel.

The fused kernel is a pure optimization: for any chunk size, compactor
and channel-resolution setting it must return
bit-identical :class:`DiagnosisResult` objects to the per-fault
:func:`repro.core.diagnosis.diagnose` oracle.
"""

import numpy as np
import pytest

from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.bist.session import (
    OutcomeViews,
    SessionOutcome,
    collect_error_event_arrays,
    collect_population_events,
)
from repro.core.diagnosis import diagnose, diagnostic_resolution
from repro.core import diagnosis_batch
from repro.core.diagnosis_batch import (
    diagnose_population,
    group_membership,
    verdict_prefixes,
)
from repro.core.partitions import Partition
from repro.core.superposition import apply_superposition
from repro.core.two_step import make_partitioner
from repro.core.vector_diagnosis import (
    diagnose_vectors,
    diagnose_vectors_population,
)
from repro.experiments import runner
from repro.experiments.cache import clear_caches
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_circuit_workload,
    evaluate_scheme,
    scheme_partitions,
)
from repro.sim.bitops import pack_bits, position_words, word_positions
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse

#: s27 is a real netlist (cannot be scaled); the synthetic benchmarks run
#: shrunk so the three-circuit sweep stays fast.
CONFIGS = {
    "s27": ExperimentConfig(num_faults=12, num_faults_large=6),
    "s953": ExperimentConfig(num_faults=16, num_faults_large=8, scale=0.3),
    "s5378": ExperimentConfig(num_faults=12, num_faults_large=6, scale=0.15),
}
CIRCUITS = tuple(CONFIGS)


def circuit_population(circuit):
    config = CONFIGS[circuit]
    workload = build_circuit_workload(circuit, config)
    partitions = scheme_partitions(
        "two-step", workload.scan_config.max_length, 4, 5,
        lfsr_degree=config.lfsr_degree,
    )
    return workload, partitions, config


def make_compactor(kind, config, num_chains):
    return None if kind == "exact" else LinearCompactor(
        config.misr_width, num_chains
    )


def assert_results_identical(oracle, fused):
    assert len(oracle) == len(fused)
    for a, b in zip(oracle, fused):
        assert a.actual_cells == b.actual_cells
        assert a.candidate_cells == b.candidate_cells
        assert a.candidate_history == b.candidate_history
        np.testing.assert_array_equal(a.position_mask, b.position_mask)
        assert len(a.outcomes) == len(b.outcomes)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.signatures == ob.signatures
            np.testing.assert_array_equal(
                oa.signature_matrix, ob.signature_matrix
            )


def random_response(rng, num_cells, num_patterns, max_cells=5):
    n_cells = int(rng.integers(1, max_cells + 1))
    cells = rng.choice(num_cells, n_cells, replace=False)
    cell_errors = {}
    for cell in cells:
        n_pats = int(rng.integers(1, min(num_patterns, 8)))
        pats = {int(p) for p in rng.choice(num_patterns, n_pats, replace=False)}
        cell_errors[int(cell)] = pack_bits(
            [1 if p in pats else 0 for p in range(num_patterns)]
        )
    return FaultResponse(Fault("X", 0), cell_errors, num_patterns)


class TestPopulationEvents:
    """The one-nonzero extractor must slice back to per-fault events."""

    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_per_fault_slices_match_single_extraction(self, circuit):
        workload, _, _ = circuit_population(circuit)
        population = collect_population_events(
            workload.responses, workload.scan_config
        )
        assert population.num_faults == len(workload.responses)
        for f, response in enumerate(workload.responses):
            single = collect_error_event_arrays(response, workload.scan_config)
            sliced = population.fault_events(f)
            np.testing.assert_array_equal(sliced.positions, single.positions)
            np.testing.assert_array_equal(sliced.channels, single.channels)
            np.testing.assert_array_equal(sliced.cycles, single.cycles)

    def test_empty_population(self):
        config = ScanConfig.single_chain(6)
        population = collect_population_events([], config)
        assert population.num_faults == 0
        assert len(population.events) == 0


class TestFusedEquivalence:
    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_matches_per_fault_oracle(self, circuit, compactor_kind):
        workload, partitions, config = circuit_population(circuit)
        compactor = make_compactor(
            compactor_kind, config, workload.scan_config.num_chains
        )
        oracle = [
            diagnose(r, workload.scan_config, partitions, compactor)
            for r in workload.responses
        ]
        fused = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
        )
        assert_results_identical(oracle, fused)
        assert diagnostic_resolution(oracle) == diagnostic_resolution(fused)

    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    def test_channel_resolution_off(self, rng, compactor_kind):
        config = ScanConfig.balanced(36, 3)
        responses = [random_response(rng, 36, 16) for _ in range(8)]
        partitions = make_partitioner("two-step", config.max_length, 4).partitions(4)
        compactor = make_compactor(
            compactor_kind, ExperimentConfig(), config.num_chains
        )
        oracle = [
            diagnose(r, config, partitions, compactor, channel_resolution=False)
            for r in responses
        ]
        fused = diagnose_population(
            responses, config, partitions, compactor,
            channel_resolution=False,
        )
        assert_results_identical(oracle, fused)

    def test_chunked_matches_unchunked(self, monkeypatch):
        workload, partitions, config = circuit_population("s953")
        compactor = make_compactor("misr", config, workload.scan_config.num_chains)
        monkeypatch.setattr(diagnosis_batch, "DEFAULT_CHUNK", 1000)
        whole = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
        )
        for chunk in (1, 3, 7):
            monkeypatch.setattr(diagnosis_batch, "DEFAULT_CHUNK", chunk)
            chunked = diagnose_population(
                workload.responses, workload.scan_config, partitions, compactor,
            )
            assert_results_identical(whole, chunked)

    def test_empty_population(self):
        workload, partitions, _ = circuit_population("s27")
        assert diagnose_population(
            [], workload.scan_config, partitions, None
        ) == []

    def test_undetected_fault_in_population(self):
        workload, partitions, config = circuit_population("s27")
        compactor = make_compactor("misr", config, workload.scan_config.num_chains)
        silent = FaultResponse(Fault("silent", 0), {}, workload.num_patterns)
        population = [silent] + list(workload.responses) + [silent]
        oracle = [
            diagnose(r, workload.scan_config, partitions, compactor)
            for r in population
        ]
        fused = diagnose_population(
            population, workload.scan_config, partitions, compactor
        )
        assert_results_identical(oracle, fused)
        assert not fused[0].detected
        assert fused[0].candidate_history[-1] == 0

    def test_scalar_only_compactor_falls_back(self):
        workload, partitions, config = circuit_population("s27")
        inner = LinearCompactor(config.misr_width, workload.scan_config.num_chains)

        class ScalarOnly:
            def compact(self, *args, **kwargs):
                return inner.compact(*args, **kwargs)

            def impulse_response(self, channel, steps):
                return inner.impulse_response(channel, steps)

        fused = diagnose_population(
            workload.responses, workload.scan_config, partitions, ScalarOnly(),
        )
        oracle = [
            diagnose(r, workload.scan_config, partitions, inner)
            for r in workload.responses
        ]
        for a, b in zip(oracle, fused):
            assert a.candidate_cells == b.candidate_cells
            assert a.candidate_history == b.candidate_history

    def test_mixed_pattern_counts_fall_back(self, rng):
        config = ScanConfig.single_chain(20)
        partitions = make_partitioner("two-step", config.max_length, 4).partitions(3)
        responses = [
            random_response(rng, 20, 16),
            random_response(rng, 20, 32),
        ]
        fused = diagnose_population(responses, config, partitions, None)
        oracle = [diagnose(r, config, partitions, None) for r in responses]
        assert_results_identical(oracle, fused)

    def test_per_fault_evaluation_matches_fused(self, monkeypatch):
        """End to end: ``evaluate_scheme`` with the per-fault ``diagnose``
        loop patched in gives the fused kernel's DR and results."""
        config = CONFIGS["s953"]
        clear_caches()
        fused = evaluate_scheme(
            build_circuit_workload("s953", config), "two-step", 4, 4, config,
            with_pruning=True,
        )

        def per_fault(responses, scan_config, partitions, compactor=None,
                      channel_resolution=True):
            return [
                diagnose(r, scan_config, partitions, compactor,
                         channel_resolution=channel_resolution)
                for r in responses
            ]

        monkeypatch.setattr(runner, "diagnose_population", per_fault)
        clear_caches()
        oracle = evaluate_scheme(
            build_circuit_workload("s953", config), "two-step", 4, 4, config,
            with_pruning=True,
        )
        clear_caches()
        assert oracle.dr == fused.dr
        assert oracle.dr_pruned == fused.dr_pruned
        assert_results_identical(oracle.results, fused.results)


#: Three ragged chains of 13/12/11 cells: no length is a multiple of 8 or
#: 32, so the packed words carry padding and the presence mask matters.
RAGGED = ScanConfig([range(0, 13), range(13, 25), range(25, 36)])


class TestRaggedChains:
    """Fused vs per-fault diagnosis where chains differ in length."""

    def population(self, rng, count=10):
        responses = [random_response(rng, RAGGED.num_cells, 40)
                     for _ in range(count)]
        responses.append(FaultResponse(Fault("silent", 0), {}, 40))
        partitions = make_partitioner(
            "random", RAGGED.max_length, 4
        ).partitions(5)
        return responses, partitions

    @pytest.mark.parametrize("channel_resolution", [True, False])
    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    def test_matches_per_fault_oracle(self, rng, compactor_kind,
                                      channel_resolution, monkeypatch):
        responses, partitions = self.population(rng)
        compactor = make_compactor(
            compactor_kind, ExperimentConfig(), RAGGED.num_chains
        )
        oracle = [
            diagnose(r, RAGGED, partitions, compactor,
                     channel_resolution=channel_resolution)
            for r in responses
        ]
        for chunk in (diagnosis_batch.DEFAULT_CHUNK, 4):
            monkeypatch.setattr(diagnosis_batch, "DEFAULT_CHUNK", chunk)
            fused = diagnose_population(
                responses, RAGGED, partitions, compactor,
                channel_resolution=channel_resolution,
            )
            assert_results_identical(oracle, fused)
        # Absent positions (past a short chain's end) are never candidates.
        absent = ~RAGGED.presence_mask()
        assert not any(r.position_mask[absent].any() for r in fused)

    @pytest.mark.parametrize("channel_resolution", [True, False])
    def test_superposition_matches_per_fault(self, rng, channel_resolution):
        responses, partitions = self.population(rng)
        compactor = make_compactor("misr", ExperimentConfig(), RAGGED.num_chains)
        oracle = apply_superposition([
            diagnose(r, RAGGED, partitions, compactor,
                     channel_resolution=channel_resolution)
            for r in responses
        ], RAGGED)
        fused = apply_superposition(diagnose_population(
            responses, RAGGED, partitions, compactor,
            channel_resolution=channel_resolution,
        ), RAGGED)
        assert_results_identical(oracle, fused)


class TestOutcomeViews:
    def fused_result(self, rng):
        responses = [random_response(rng, RAGGED.num_cells, 40)]
        partitions = make_partitioner(
            "random", RAGGED.max_length, 4
        ).partitions(4)
        compactor = make_compactor("misr", ExperimentConfig(), RAGGED.num_chains)
        fused = diagnose_population(
            responses, RAGGED, partitions, compactor
        )[0]
        oracle = diagnose(responses[0], RAGGED, partitions, compactor)
        return fused, oracle

    def test_sequence_protocol(self, rng):
        fused, oracle = self.fused_result(rng)
        views = fused.outcomes
        assert isinstance(views, OutcomeViews)
        assert len(views) == len(oracle.outcomes) == 4
        matrices = [o.signature_matrix for o in oracle.outcomes]
        for got, want in zip(views, matrices):  # iteration
            assert isinstance(got, SessionOutcome)
            np.testing.assert_array_equal(got.signature_matrix, want)
        np.testing.assert_array_equal(views[-1].signature_matrix, matrices[-1])
        np.testing.assert_array_equal(views[-4].signature_matrix, matrices[0])
        sliced = views[1:3]
        assert isinstance(sliced, list) and len(sliced) == 2
        np.testing.assert_array_equal(sliced[0].signature_matrix, matrices[1])
        assert len(views[::-1]) == 4
        assert [o.num_groups for o in list(views)] == [4, 4, 4, 4]
        for index in (4, -5):
            with pytest.raises(IndexError):
                views[index]

    def test_read_only(self, rng):
        fused, _ = self.fused_result(rng)
        with pytest.raises(TypeError):
            fused.outcomes[0] = fused.outcomes[1]
        with pytest.raises(AttributeError):
            fused.outcomes.append(fused.outcomes[0])

    def test_groups_past_a_partitions_count_are_cut(self):
        tensor = np.arange(2 * 3 * 2, dtype=np.uint64).reshape(2, 3, 2)
        views = OutcomeViews(tensor, [3, 1])
        assert views[0].signature_matrix.shape == (3, 2)
        assert views[1].signatures == [[6, 7]]


class TestVerdictPrefixes:
    """The packed intersection against a dense boolean reference."""

    @pytest.mark.parametrize("length", [1, 13, 32, 33, 70])
    def test_matches_dense_intersection(self, rng, length):
        num_groups = (3, 5, 2, 4)
        partitions = [
            Partition(rng.integers(0, g, length), g) for g in num_groups
        ]
        failing = rng.random((6, len(partitions), 2, max(num_groups))) < 0.5
        presence = rng.random((2, length)) < 0.8
        history, final = verdict_prefixes(
            failing, group_membership(partitions),
            position_words(presence),
        )
        mask = np.broadcast_to(presence, (6, 2, length)).copy()
        for p, part in enumerate(partitions):
            mask &= failing[:, p][..., part.group_of]
            np.testing.assert_array_equal(history[p], mask.sum(axis=(1, 2)))
        np.testing.assert_array_equal(word_positions(final, length), mask)

    @pytest.mark.parametrize("length", [1, 31, 32, 64, 100])
    def test_word_round_trip(self, rng, length):
        mask = rng.random((3, length)) < 0.5
        words = position_words(mask)
        assert words.shape == (3, -(-length // 32))
        np.testing.assert_array_equal(word_positions(words, length), mask)


class TestFusedVectorDiagnosis:
    def vector_setup(self, rng, num_patterns=24):
        config = ScanConfig.balanced(30, 2)
        responses = [random_response(rng, 30, num_patterns) for _ in range(9)]
        partitions = make_partitioner("two-step", num_patterns, 4).partitions(4)
        return config, responses, partitions

    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    def test_matches_per_fault_loop(self, rng, compactor_kind, monkeypatch):
        config, responses, partitions = self.vector_setup(rng)
        compactor = make_compactor(
            compactor_kind, ExperimentConfig(), config.num_chains
        )
        oracle = [
            diagnose_vectors(r, config, partitions, compactor) for r in responses
        ]
        for chunk in (diagnosis_batch.DEFAULT_CHUNK, 2, 1000):
            monkeypatch.setattr(diagnosis_batch, "DEFAULT_CHUNK", chunk)
            fused = diagnose_vectors_population(
                responses, config, partitions, compactor
            )
            for a, b in zip(oracle, fused):
                assert a.actual_vectors == b.actual_vectors
                assert a.candidate_vectors == b.candidate_vectors
                assert a.candidate_history == b.candidate_history

    def test_undetected_fault(self, rng):
        config, responses, partitions = self.vector_setup(rng)
        silent = FaultResponse(Fault("silent", 0), {}, responses[0].num_patterns)
        fused = diagnose_vectors_population(
            [silent] + responses, config, partitions, None
        )
        assert not fused[0].detected
        assert fused[0].candidate_vectors == set()

    def test_empty_population(self, rng):
        config, _, partitions = self.vector_setup(rng)
        assert diagnose_vectors_population([], config, partitions, None) == []
