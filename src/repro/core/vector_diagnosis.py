"""Failing test-vector identification (companion scheme, Liu, Chakrabarty &
Goessel, DATE 2002 [4]).

The paper's reference [4] applies the same interval idea on the *time*
axis: instead of masking scan cells, the BIST flow is split into sessions
that each compact the responses of one group of *patterns*, so a signature
mismatch localizes the failing test vectors.  Knowing the failing vectors
is the other half of failure analysis (it selects the patterns to replay on
an ATE for effect-cause analysis), and the paper positions the failing-cell
scheme as the space-axis complement of this known-time scheme.

The implementation mirrors :mod:`repro.core.diagnosis`, with partitions
over pattern indices and signatures collected per (pattern-group, channel)
session.  All four partitioning schemes apply unchanged — a
:class:`repro.core.partitions.Partition` over patterns instead of shift
positions — because errors cluster in time too (a fault is detected by
correlated pattern subsets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from ..bist.misr import LinearCompactor
from ..bist.scan import ScanConfig
from ..bist.session import (
    collect_error_event_arrays,
    collect_population_events,
    event_contributions,
)
from ..sim.bitops import word_positions
from ..sim.faultsim import FaultResponse
from ..telemetry import METRICS, span
from .partitions import Partition, validate_partition_set


@dataclass
class VectorDiagnosisResult:
    """Outcome of failing-vector diagnosis for one fault."""

    actual_vectors: Set[int]
    candidate_vectors: Set[int]
    candidate_history: List[int] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.actual_vectors)

    @property
    def sound(self) -> bool:
        return self.actual_vectors <= self.candidate_vectors


def failing_vectors(response: FaultResponse) -> Set[int]:
    """Patterns under which at least one scan cell captured an error."""
    if not response.cell_errors:
        return set()
    combined = np.bitwise_or.reduce(
        np.stack(list(response.cell_errors.values())), axis=0
    )
    bits = np.unpackbits(combined.view(np.uint8), bitorder="little")
    return {int(p) for p in np.flatnonzero(bits)}


def diagnose_vectors(
    response: FaultResponse,
    scan_config: ScanConfig,
    partitions: Sequence[Partition],
    compactor: Optional[LinearCompactor] = None,
) -> VectorDiagnosisResult:
    """Identify failing test vectors via pattern-group sessions.

    ``partitions`` must cover ``response.num_patterns`` positions (pattern
    indices).  Session ``(partition, group)`` compacts the responses of the
    patterns in that group only; a signature mismatch marks the group
    failing, and candidates are intersected across partitions exactly as in
    the failing-cell scheme.
    """
    partitions = list(partitions)
    validate_partition_set(partitions)
    if partitions[0].length != response.num_patterns:
        raise ValueError(
            f"partition length {partitions[0].length} != number of patterns "
            f"{response.num_patterns}"
        )
    events = collect_error_event_arrays(response, scan_config)
    chain_cycles = scan_config.max_length
    total_cycles = scan_config.total_cycles(response.num_patterns)

    # Within a session, only the selected patterns' unload windows drive the
    # compactor; the per-pattern window keeps its global timing so
    # signatures stay comparable.  Contributions are partition-independent,
    # so one batch evaluation serves all partitions.
    batched = compactor is None or hasattr(compactor, "batch_impulse_responses")
    if batched:
        contributions = event_contributions(events, compactor, total_cycles)
    event_patterns = events.cycles // chain_cycles

    mask = np.ones(response.num_patterns, dtype=bool)
    history: List[int] = []
    for part in partitions:
        groups = part.group_of[event_patterns]
        if compactor is None:
            failing = np.zeros(part.num_groups, dtype=bool)
            failing[groups] = True
        elif batched:
            signatures = np.zeros(part.num_groups, dtype=np.uint64)
            np.bitwise_xor.at(signatures, groups, contributions)
            failing = signatures != 0
        else:
            scalar = [0] * part.num_groups
            for group, channel, cycle in zip(groups, events.channels, events.cycles):
                scalar[int(group)] ^= compactor.impulse_response(
                    int(channel), total_cycles - 1 - int(cycle)
                )
            failing = np.array([sig != 0 for sig in scalar])
        mask &= failing[part.group_of]
        history.append(int(mask.sum()))

    return VectorDiagnosisResult(
        actual_vectors=failing_vectors(response),
        candidate_vectors={int(p) for p in np.flatnonzero(mask)},
        candidate_history=history,
    )


def diagnose_vectors_population(
    responses: Sequence[FaultResponse],
    scan_config: ScanConfig,
    partitions: Sequence[Partition],
    compactor: Optional[LinearCompactor] = None,
) -> List[VectorDiagnosisResult]:
    """Identify failing vectors for a whole fault population in one scatter.

    The pattern-axis twin of
    :func:`repro.core.diagnosis_batch.diagnose_population`: every fault's
    events are extracted in one pass, one ``batch_impulse_responses`` call
    covers the population, and one scatter into a single-channel
    ``(fault, partition, group, 1)`` tensor (shared
    :func:`~repro.core.diagnosis_batch.scatter_population_signatures`)
    yields every session verdict.  Bit-identical to calling
    :func:`diagnose_vectors` per response, and chunked like its twin
    (``diagnosis_batch.DEFAULT_CHUNK`` faults per launch); scalar-only
    compactors and mixed pattern counts fall back to that per-fault loop.
    """
    from . import diagnosis_batch

    responses = list(responses)
    partitions = list(partitions)
    if not responses:
        return []
    batched = compactor is None or hasattr(compactor, "batch_impulse_responses")
    if not batched or len({r.num_patterns for r in responses}) > 1:
        METRICS.incr("diagnosis.perfault_faults", len(responses))
        return [
            diagnose_vectors(response, scan_config, partitions, compactor)
            for response in responses
        ]
    validate_partition_set(partitions)
    if partitions[0].length != responses[0].num_patterns:
        raise ValueError(
            f"partition length {partitions[0].length} != number of patterns "
            f"{responses[0].num_patterns}"
        )
    chunk = diagnosis_batch.DEFAULT_CHUNK
    results: List[VectorDiagnosisResult] = []
    for lo in range(0, len(responses), chunk):
        results.extend(
            _diagnose_vectors_chunk(
                responses[lo:lo + chunk], scan_config, partitions, compactor
            )
        )
    return results


def _diagnose_vectors_chunk(
    responses: Sequence[FaultResponse],
    scan_config: ScanConfig,
    partitions: Sequence[Partition],
    compactor: Optional[LinearCompactor],
) -> List[VectorDiagnosisResult]:
    from .diagnosis_batch import (
        group_membership,
        scatter_population_signatures,
        verdict_prefixes,
    )

    num_faults = len(responses)
    num_parts = len(partitions)
    max_groups = max(part.num_groups for part in partitions)
    num_patterns = responses[0].num_patterns
    total_cycles = scan_config.total_cycles(num_patterns)

    with span("diagnose.vector_batch_kernel", faults=num_faults,
              partitions=num_parts) as sp:
        population = collect_population_events(responses, scan_config)
        events = population.events
        METRICS.incr("diagnosis.batch_kernel_calls")
        METRICS.incr("diagnosis.batch_faults", num_faults)
        METRICS.observe("diagnosis.chunk_faults", num_faults)
        METRICS.observe("diagnosis.events_per_launch", len(events))
        METRICS.gauge("diagnosis.last_events_per_launch", len(events))
        sp.add("events", len(events))

        if compactor is None:
            contributions = None
        else:
            contributions = compactor.batch_impulse_responses(
                events.channels, total_cycles - 1 - events.cycles
            )
        event_patterns = events.cycles // scan_config.max_length

        tensor = np.zeros(
            (num_faults, num_parts, max_groups, 1), dtype=np.uint64
        )
        if len(events):
            group_stack = np.stack(
                [np.asarray(part.group_of) for part in partitions]
            )
            scatter_population_signatures(
                tensor, population.fault_of,
                group_stack[:, event_patterns], None, contributions,
            )

        # [fault, partition, 1, group] verdicts over pattern positions.
        history, final = verdict_prefixes(
            (tensor != 0).transpose(0, 1, 3, 2),
            group_membership(partitions),
        )
        cand_fault, _, cand_pattern = np.nonzero(
            word_positions(final, num_patterns)
        )
        cand_bounds = np.searchsorted(
            cand_fault, np.arange(num_faults + 1)
        ).tolist()
        # Actual failing vectors = the unique (fault, pattern) event pairs.
        pairs = np.unique(
            population.fault_of * np.int64(num_patterns) + event_patterns
        )
        actual_fault, actual_pattern = pairs // num_patterns, pairs % num_patterns
        actual_bounds = np.searchsorted(
            actual_fault, np.arange(num_faults + 1)
        ).tolist()
        cand_pattern = cand_pattern.tolist()
        actual_pattern = actual_pattern.tolist()
        history_rows = history.T.tolist()

    return [
        VectorDiagnosisResult(
            actual_vectors=set(actual_pattern[a_lo:a_hi]),
            candidate_vectors=set(cand_pattern[c_lo:c_hi]),
            candidate_history=history_rows[f],
        )
        for f, (a_lo, a_hi, c_lo, c_hi) in enumerate(zip(
            actual_bounds, actual_bounds[1:], cand_bounds, cand_bounds[1:],
        ))
    ]


def vector_diagnostic_resolution(
    results: Sequence[VectorDiagnosisResult],
) -> float:
    """DR over failing vectors, mirroring the failing-cell metric."""
    total_candidates = 0
    total_actual = 0
    for result in results:
        if not result.detected:
            continue
        total_candidates += len(result.candidate_vectors)
        total_actual += len(result.actual_vectors)
    if total_actual == 0:
        raise ValueError("no detected faults in the result set")
    return (total_candidates - total_actual) / total_actual
