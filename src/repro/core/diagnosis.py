"""Diagnosis engine: multi-session, multi-partition failing-cell identification.

Ties together the fault response (which cells captured errors, under which
patterns), the scan configuration (where each cell sits in the shift
sequence), the partition set (which cells each session observes) and the
compactor (whether a session's signature reveals the errors).

Candidate pruning is the classical inclusion/exclusion: a cell remains a
candidate iff its ``(group, chain)`` signature failed in *every* partition.
The optional superposition post-processing of [7] is in
:mod:`repro.core.superposition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bist.misr import LinearCompactor
from ..bist.scan import ScanConfig
from ..bist.session import (
    SessionOutcome,
    collect_error_event_arrays,
    event_contributions,
    run_partition_sessions,
    sessions_for_partitions,
)
from ..sim.faultsim import FaultResponse
from .partitions import Partition, validate_partition_set


@dataclass
class DiagnosisResult:
    """Outcome of diagnosing one fault with a partition set."""

    actual_cells: Set[int]
    candidate_cells: Set[int]
    #: One entry per partition: a list, or the fused kernel's read-only
    #: :class:`~repro.bist.session.OutcomeViews`.
    outcomes: Sequence[SessionOutcome]
    partitions: List[Partition]
    candidate_history: List[int] = field(default_factory=list)
    #: Candidate mask ``[chain, position]`` after intersection pruning
    #: (pre-superposition); None-presence positions are always False.
    position_mask: Optional[np.ndarray] = None

    @property
    def detected(self) -> bool:
        return bool(self.actual_cells)

    @property
    def sound(self) -> bool:
        """True if no truly failing cell was pruned (soundness can only be
        violated by MISR aliasing)."""
        return self.actual_cells <= self.candidate_cells

    @property
    def num_sessions(self) -> int:
        return sum(p.num_groups for p in self.partitions)


def diagnose(
    response: FaultResponse,
    scan_config: ScanConfig,
    partitions: Sequence[Partition],
    compactor: Optional[LinearCompactor] = None,
    channel_resolution: bool = True,
) -> DiagnosisResult:
    """Run all sessions of all partitions and intersect failing groups.

    ``compactor=None`` uses exact (alias-free) group pass/fail decisions;
    passing a :class:`LinearCompactor` models the real MISR comparison.

    ``channel_resolution=False`` collapses each session's per-chain
    signatures into one (a single shared MISR readout): cells sharing a
    shift position across chains then always stay together — the ablation
    quantifies what that costs.

    The result's ``candidate_history[k]`` is the candidate-cell count after
    the first ``k+1`` partitions — the data behind the paper's Table 1 and
    Figure 5 sweeps, at no extra simulation cost.
    """
    partitions = list(partitions)
    validate_partition_set(partitions)
    length = partitions[0].length
    if length != scan_config.max_length:
        raise ValueError(
            f"partition length {length} != scan configuration length "
            f"{scan_config.max_length}"
        )
    events = collect_error_event_arrays(response, scan_config)
    total_cycles = scan_config.total_cycles(response.num_patterns)
    num_channels = scan_config.num_chains

    # Impulse responses depend only on (channel, cycle), never on the
    # partition, so one batch evaluation and one signature scatter serve
    # every session of every partition.
    batched = compactor is None or hasattr(compactor, "batch_impulse_responses")
    if batched:
        contributions = event_contributions(events, compactor, total_cycles)
        session_outcomes = sessions_for_partitions(
            events, contributions, partitions, num_channels
        )
    else:
        session_outcomes = [
            run_partition_sessions(
                events,
                part.group_of,
                part.num_groups,
                total_cycles,
                compactor,
                num_channels=num_channels,
            )
            for part in partitions
        ]

    outcomes: List[SessionOutcome] = []
    mask = scan_config.presence_mask()  # [chain, position]
    history: List[int] = []
    for part, outcome in zip(partitions, session_outcomes):
        if not channel_resolution:
            collapsed = outcome.combined(exact=compactor is None)
            failing = collapsed.failing_matrix(1)[:, 0]  # [group]
            mask &= failing[part.group_of][np.newaxis, :]
            outcomes.append(collapsed)
        else:
            failing = outcome.failing_matrix(num_channels)  # [group, channel]
            mask &= failing[part.group_of, :].T  # -> [chain, position]
            outcomes.append(outcome)
        history.append(int(mask.sum()))

    candidates = _cells_from_mask(scan_config, mask)
    return DiagnosisResult(
        actual_cells=set(response.failing_cells),
        candidate_cells=candidates,
        outcomes=outcomes,
        partitions=partitions,
        candidate_history=history,
        position_mask=mask,
    )


def _cells_from_mask(scan_config: ScanConfig, mask: np.ndarray) -> Set[int]:
    grid = scan_config.cell_id_grid()
    return set(int(c) for c in grid[mask & (grid >= 0)])


def _detected_totals(
    results: Sequence[DiagnosisResult],
) -> Tuple[List[DiagnosisResult], int]:
    """The detected subset of a result population and its actual-cell total.

    Both DR metrics score only detected faults against the same
    denominator, so the filter and the sum are computed once and shared
    (``dr_by_partition_count`` used to redo both — and re-raise — inside
    its per-``k`` loop).
    """
    detected = [result for result in results if result.detected]
    total_actual = sum(len(result.actual_cells) for result in detected)
    if total_actual == 0:
        raise ValueError("no detected faults in the result set")
    return detected, total_actual


def diagnostic_resolution(results: Sequence[DiagnosisResult]) -> float:
    """The paper's DR metric over a fault population:

    ``DR = (Σ_f |candidates| − Σ_f |actual|) / Σ_f |actual|``

    computed over *detected* faults (undetected faults produce no failing
    cells and no failing sessions).  DR = 0 is ideal.
    """
    detected, total_actual = _detected_totals(results)
    total_candidates = sum(len(result.candidate_cells) for result in detected)
    return (total_candidates - total_actual) / total_actual


def dr_by_partition_count(
    results: Sequence[DiagnosisResult], max_partitions: int
) -> List[float]:
    """DR after 1, 2, ..., ``max_partitions`` partitions (prefix sweep)."""
    detected, total_actual = _detected_totals(results)
    values = []
    for k in range(max_partitions):
        total_candidates = sum(
            result.candidate_history[min(k, len(result.candidate_history) - 1)]
            for result in detected
        )
        values.append((total_candidates - total_actual) / total_actual)
    return values


def partitions_to_reach_dr(
    results: Sequence[DiagnosisResult],
    target_dr: float,
    max_partitions: int,
) -> Optional[int]:
    """Smallest partition count whose prefix DR is at most ``target_dr``
    (paper Figure 5); ``None`` if the target is never reached."""
    sweep = dr_by_partition_count(results, max_partitions)
    for count, dr in enumerate(sweep, start=1):
        if dr <= target_dr:
            return count
    return None
