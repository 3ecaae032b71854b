"""Batch diagnosis execution against cache-pinned compiled state.

The engine is the synchronous heart of the service: given a batch of
requests that share a :meth:`~repro.service.protocol.DiagnoseRequest.workload_key`,
it resolves the compiled workload (netlist, golden simulation, sampled
fault responses), the partition set and the compactor **once** — all three
through :mod:`repro.experiments.cache`, so they stay hot across batches —
then diagnoses the whole batch in one fused kernel launch
(:func:`repro.core.diagnosis_batch.diagnose_population`; chunked only
when the batch outgrows the chunk bound).  Results are bit-identical to
calling :func:`repro.core.diagnosis.diagnose` per request.  A kernel
exception fails every member of its batch with ``internal_error``; the
next batch runs as usual.  Serving scales out through the prefork cluster
(:mod:`repro.cluster`), one engine per worker process.

Memory bounding: the process-wide cache never ages entries out, so a
long-lived server would grow with every distinct workload it has ever
seen.  ``max_cache_bytes`` gives the engine an LRU budget: after each
resolve it evicts the least-recently-used workloads (never the one it is
about to use) until the cache's byte estimate fits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..bist.misr import LinearCompactor
from ..bist.scan import ScanConfig
from ..core.diagnosis import DiagnosisResult
from ..core.diagnosis_batch import diagnose_population
from ..core.partitions import Partition
from ..experiments import cache
from ..experiments.config import ExperimentConfig
from ..experiments.runner import (
    Workload,
    build_circuit_workload,
    circuit_workload_key,
    scheme_partitions,
    shared_compactor,
)
from ..sim.bitops import num_words
from ..sim.faults import Fault
from ..sim.faultsim import FaultResponse
from ..telemetry import METRICS, log, span
from .protocol import DiagnoseReply, DiagnoseRequest, ServiceError

#: A batch slot resolves to either a reply or a per-request error.
BatchResult = Union[DiagnoseReply, ServiceError]


@dataclass
class WorkloadContext:
    """Everything a batch needs, resolved once per workload key."""

    workload: Workload
    partitions: List[Partition]
    compactor: LinearCompactor
    cache_key: Hashable  # the "workload" memo key (for eviction)

    @property
    def scan_config(self) -> ScanConfig:
        return self.workload.scan_config


class DiagnosisEngine:
    """Resolves workloads and executes coalesced diagnosis batches."""

    def __init__(self, max_cache_bytes: Optional[int] = None):
        self.max_cache_bytes = max_cache_bytes
        self._lock = threading.Lock()
        #: Workload cache keys in least-recently-used-first order.
        self._lru: "OrderedDict[Hashable, Hashable]" = OrderedDict()

    # -- resolution -----------------------------------------------------------

    def resolve(self, request: DiagnoseRequest) -> WorkloadContext:
        """Compiled state for one workload key (cache-hot after first use)."""
        config = ExperimentConfig(
            num_patterns=request.num_patterns,
            num_faults=request.fault_count,
            num_faults_large=request.fault_count,
            misr_width=request.misr_width,
            fault_seed=request.fault_seed,
            scale=request.scale,
        )
        try:
            workload = build_circuit_workload(
                request.circuit, config, num_patterns=request.num_patterns
            )
        except KeyError as exc:
            raise ServiceError("circuit_not_found", str(exc.args[0]))
        partitions = scheme_partitions(
            request.scheme,
            workload.scan_config.max_length,
            request.num_groups,
            request.num_partitions,
            lfsr_degree=config.lfsr_degree,
        )
        compactor = shared_compactor(
            request.misr_width, workload.scan_config.num_chains
        )
        cache_key = circuit_workload_key(
            request.circuit, config, request.num_patterns
        )
        self._touch(cache_key)
        return WorkloadContext(workload, partitions, compactor, cache_key)

    def prewarm(self, request: DiagnoseRequest) -> WorkloadContext:
        """Resolve eagerly (e.g. at server start, before traffic lands)."""
        return self.resolve(request)

    def warm_from_disk(self) -> int:
        """Load the persistent disk tier (``REPRO_DISK_CACHE``) into the
        process-wide memo store, bounded by this engine's cache budget.

        Called at server start so cold starts skip netlist compilation and
        fault simulation for every workload a previous process ever built.
        Returns the number of entries loaded (0 when no disk cache is
        configured or the directory is empty/corrupt — warm-up degrades,
        it never fails).
        """
        loaded = cache.warm_from_disk(max_bytes=self.max_cache_bytes)
        if loaded:
            METRICS.incr("service.disk_warmed", loaded)
            log(f"service: warmed {loaded} cache entries from disk "
                f"({cache.total_bytes()} B resident)")
        return loaded

    def _touch(self, cache_key: Hashable) -> None:
        """LRU bookkeeping + eviction down to the byte budget."""
        with self._lock:
            self._lru[cache_key] = cache_key
            self._lru.move_to_end(cache_key)
            if self.max_cache_bytes is None:
                return
            while len(self._lru) > 1 and cache.total_bytes() > self.max_cache_bytes:
                victim, _ = self._lru.popitem(last=False)
                if cache.evict("workload", victim):
                    log(f"service: evicted workload {victim[0]!r} "
                        f"(cache {cache.total_bytes()} B > "
                        f"budget {self.max_cache_bytes} B)")

    # -- execution ------------------------------------------------------------

    def execute_batch(
        self,
        requests: Sequence[DiagnoseRequest],
        traces: Optional[Sequence[Optional[Tuple[str, str]]]] = None,
    ) -> List[BatchResult]:
        """Diagnose a coalesced batch (all requests share a workload key).

        Per-request failures (bad fault index, out-of-range cell) become
        :class:`ServiceError` slots; a workload-level failure (unknown
        circuit) fails every slot with the same error.  The result list is
        index-aligned with ``requests``.

        ``traces`` (optional, index-aligned) carries each member's
        ``(trace_id, server_span_id)``; the batch span is then a child of
        the head member's server span, *linked* to every other member's,
        and the kernel runs under it so kernel spans nest beneath it.
        """
        if not requests:
            return []
        try:
            context = self.resolve(requests[0])
        except ServiceError as exc:
            return [exc for _ in requests]
        except Exception as exc:  # noqa: BLE001 - request-level boundary
            log(f"service: workload resolution failed: {exc!r}")
            return [ServiceError("internal_error", f"workload resolution failed: {exc}")
                    for _ in requests]

        responses: List[Optional[FaultResponse]] = []
        results: List[Optional[BatchResult]] = []
        for request in requests:
            try:
                responses.append(self._response_for(request, context))
                results.append(None)  # filled from the diagnosis pass
            except ServiceError as exc:
                responses.append(None)
                results.append(exc)

        live = [i for i, r in enumerate(responses) if r is not None]
        if live:
            diagnosed = self._diagnose_many(
                [responses[i] for i in live], context, requests[0],
                self._live_traces(traces, live),
            )
            for slot, outcome in zip(live, diagnosed):
                request = requests[slot]
                if isinstance(outcome, ServiceError):
                    results[slot] = outcome
                else:
                    results[slot] = DiagnoseReply(
                        request_id=request.request_id,
                        circuit=request.circuit,
                        scheme=request.scheme,
                        candidate_cells=sorted(outcome.candidate_cells),
                        actual_cells=sorted(outcome.actual_cells),
                        sound=outcome.sound,
                        num_sessions=outcome.num_sessions,
                        candidate_history=list(outcome.candidate_history),
                    )
        METRICS.incr("service.diagnosed", len(live))
        return results  # type: ignore[return-value]

    def _response_for(
        self, request: DiagnoseRequest, context: WorkloadContext
    ) -> FaultResponse:
        if request.fault_index is not None:
            responses = context.workload.responses
            if request.fault_index >= len(responses):
                raise ServiceError(
                    "invalid_argument",
                    f"fault_index {request.fault_index} out of range "
                    f"[0, {len(responses)})",
                )
            return responses[request.fault_index]
        assert request.cell_errors is not None
        num_cells = context.scan_config.num_cells
        words = num_words(request.num_patterns)
        cell_errors: Dict[int, np.ndarray] = {}
        for cell, patterns in request.cell_errors:
            if cell >= num_cells:
                raise ServiceError(
                    "invalid_argument",
                    f"cell position {cell} out of range [0, {num_cells}) "
                    f"for {request.circuit}",
                )
            vec = np.zeros(words, dtype=np.uint64)
            for p in patterns:
                vec[p // 64] |= np.uint64(1) << np.uint64(p % 64)
            cell_errors[cell] = vec
        fault = Fault(f"external:{request.request_id or 'anon'}", 0)
        return FaultResponse(fault, cell_errors, request.num_patterns)

    @staticmethod
    def _live_traces(
        traces: Optional[Sequence[Optional[Tuple[str, str]]]],
        live: Sequence[int],
    ) -> List[Tuple[str, str]]:
        """The (trace_id, span_id) pairs of the live batch slots, in order."""
        if not traces:
            return []
        return [traces[i] for i in live
                if i < len(traces) and traces[i] is not None]

    def _diagnose_many(
        self,
        responses: List[FaultResponse],
        context: WorkloadContext,
        head: DiagnoseRequest,
        trace_pairs: Sequence[Tuple[str, str]],
    ) -> List[Union[DiagnosisResult, ServiceError]]:
        """One fused kernel launch per coalesced batch, in one batch span.

        The whole batch goes through
        :func:`repro.core.diagnosis_batch.diagnose_population` — a dynamic
        batch is exactly a fault population sharing one workload, so it
        collapses into a single signature scatter (chunked only when the
        batch outgrows ``diagnosis_batch.DEFAULT_CHUNK``).  A kernel exception
        answers every member with ``internal_error``.
        """
        with span("service.batch", kind="batch",
                  parent=trace_pairs[0] if trace_pairs else None,
                  key=f"{head.circuit}/{head.scheme}",
                  links=[{"trace_id": t, "span_id": s}
                         for t, s in trace_pairs[1:]],
                  batch_size=len(responses), circuit=head.circuit,
                  scheme=head.scheme) as batch:
            try:
                return diagnose_population(
                    responses, context.scan_config, context.partitions,
                    context.compactor,
                )
            except Exception as exc:  # noqa: BLE001 - request-level boundary
                log(f"service: diagnosis failed: {exc!r}")
                batch.set_attribute("status", "internal_error")
                error = ServiceError("internal_error", f"diagnosis failed: {exc}")
                return [error for _ in responses]
