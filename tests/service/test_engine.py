"""DiagnosisEngine: both request modes, error slots, kernel failure, LRU."""

from repro.experiments import cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_circuit_workload, scheme_partitions
from repro.service import engine as engine_module
from repro.service.engine import DiagnosisEngine
from repro.service.protocol import DiagnoseRequest, ServiceError
from repro.sim.bitops import get_bit

from .conftest import SMALL, small_request


def direct_results():
    """The ground truth: the plain core.diagnosis path for SMALL."""
    from repro.bist.misr import LinearCompactor
    from repro.core.diagnosis import diagnose

    config = ExperimentConfig(
        num_patterns=SMALL["num_patterns"],
        num_faults=SMALL["fault_count"],
        num_faults_large=SMALL["fault_count"],
    )
    workload = build_circuit_workload(
        SMALL["circuit"], config, num_patterns=SMALL["num_patterns"])
    partitions = scheme_partitions(
        "two-step", workload.scan_config.max_length, 8, 6,
        lfsr_degree=config.lfsr_degree)
    compactor = LinearCompactor(24, workload.scan_config.num_chains)
    return workload, [
        diagnose(r, workload.scan_config, partitions, compactor)
        for r in workload.responses
    ]


class TestFaultIndexMode:
    def test_matches_direct_diagnosis(self):
        _, expected = direct_results()
        engine = DiagnosisEngine()
        requests = [small_request(i) for i in range(SMALL["fault_count"])]
        replies = engine.execute_batch(requests)
        for reply, direct in zip(replies, expected):
            assert reply.candidate_cells == sorted(direct.candidate_cells)
            assert reply.actual_cells == sorted(direct.actual_cells)
            assert reply.sound == direct.sound

    def test_out_of_range_index_fails_only_that_slot(self):
        engine = DiagnosisEngine()
        replies = engine.execute_batch(
            [small_request(0), small_request(99)])
        assert replies[0].candidate_cells  # healthy slot served
        assert isinstance(replies[1], ServiceError)
        assert replies[1].code == "invalid_argument"


class TestCellErrorsMode:
    def test_explicit_signature_matches_replay(self):
        workload, expected = direct_results()
        response = workload.responses[0]
        cell_errors = {
            str(cell): [p for p in range(response.num_patterns)
                        if get_bit(vec, p)]
            for cell, vec in response.cell_errors.items()
        }
        request = DiagnoseRequest.from_payload(dict(
            SMALL, cell_errors=cell_errors))
        engine = DiagnosisEngine()
        reply = engine.execute_batch([request])[0]
        assert reply.candidate_cells == sorted(expected[0].candidate_cells)

    def test_cell_out_of_range_is_invalid_argument(self):
        request = DiagnoseRequest.from_payload(dict(
            SMALL, cell_errors={"100000": [0]}))
        engine = DiagnosisEngine()
        reply = engine.execute_batch([request])[0]
        assert isinstance(reply, ServiceError)
        assert reply.code == "invalid_argument"


class TestWorkloadErrors:
    def test_unknown_circuit_fails_every_slot(self):
        engine = DiagnosisEngine()
        requests = [
            DiagnoseRequest.from_payload({"circuit": "nope", "fault_index": i})
            for i in range(3)
        ]
        replies = engine.execute_batch(requests)
        assert all(isinstance(r, ServiceError) for r in replies)
        assert all(r.code == "circuit_not_found" for r in replies)

    def test_empty_batch(self):
        assert DiagnosisEngine().execute_batch([]) == []


class TestKernelFailure:
    def test_kernel_exception_fails_the_batch_only(self, monkeypatch):
        from repro.telemetry import FLIGHT

        _, expected = direct_results()
        engine = DiagnosisEngine()

        def failing_kernel(*args, **kwargs):
            raise RuntimeError("kernel failed")

        saved = FLIGHT.capacity
        FLIGHT.resize(64)
        try:
            mark = FLIGHT.recorded
            monkeypatch.setattr(
                engine_module, "diagnose_population", failing_kernel)
            replies = engine.execute_batch(
                [small_request(i) for i in range(3)])
            batches = [r for r in FLIGHT.since(mark)
                       if r["name"] == "service.batch"]
        finally:
            FLIGHT.resize(saved)
        assert all(isinstance(r, ServiceError) for r in replies)
        assert [r.code for r in replies] == ["internal_error"] * 3
        assert [b["status"] for b in batches] == ["internal_error"]
        # Nothing latches: the next batch runs the kernel as usual.
        monkeypatch.undo()
        reply = engine.execute_batch([small_request(0)])[0]
        assert reply.candidate_cells == sorted(expected[0].candidate_cells)


class TestMemoryBounding:
    def test_lru_eviction_respects_budget(self):
        cache.clear()
        engine = DiagnosisEngine(max_cache_bytes=1)
        engine.execute_batch([small_request(0)])
        first_key = next(iter(engine._lru))
        # A second, different workload must push the first one out.
        engine.execute_batch([small_request(0, num_patterns=16)])
        stats = cache.stats()
        assert stats.evictions >= 1
        assert ("workload", first_key) not in cache._STORE
        # The evicted workload simply rebuilds on the next request.
        reply = engine.execute_batch([small_request(0)])[0]
        assert reply.candidate_cells
        cache.clear()
