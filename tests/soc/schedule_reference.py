"""Bypass-schedule diagnosis, one fault and one pattern bit at a time.

Test-only reference for :func:`repro.soc.schedule.diagnose_schedule`: each
fault's error matrix is sliced to a phase window bit by bit through a
freshly built global-to-local dict, and each phase is diagnosed by the
per-fault :func:`repro.core.diagnosis.diagnose` with its own partitions
and compactor.  Runtime code must not import this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.bist.misr import LinearCompactor
from repro.core.diagnosis import DiagnosisResult, diagnose
from repro.core.two_step import make_partitioner
from repro.sim.bitops import num_words, pattern_mask
from repro.sim.faultsim import FaultResponse
from repro.soc.schedule import Phase, ScheduleDiagnosisResult, TestSchedule


def sliced_per_bit(response: FaultResponse, phase: Phase) -> FaultResponse:
    """The fault's errors in the phase window, re-indexed to phase-local
    cell ids and pattern offsets."""
    local_of_global = {gid: lid for lid, gid in enumerate(phase.global_of_local)}
    words = num_words(phase.num_patterns)
    mask = pattern_mask(phase.num_patterns)
    sliced: Dict[int, np.ndarray] = {}
    for gid, vec in response.cell_errors.items():
        lid = local_of_global.get(gid)
        if lid is None:
            continue
        local_vec = np.zeros(words, dtype=np.uint64)
        for p_local in range(phase.num_patterns):
            p_global = phase.first_pattern + p_local
            word, bit = divmod(p_global, 64)
            if word < len(vec) and (int(vec[word]) >> bit) & 1:
                local_vec[p_local // 64] |= np.uint64(1) << np.uint64(p_local % 64)
        local_vec &= mask
        if local_vec.any():
            sliced[lid] = local_vec
    return FaultResponse(response.fault, sliced, phase.num_patterns)


def diagnose_schedule_per_fault(
    response: FaultResponse,
    schedule: TestSchedule,
    scheme: str = "two-step",
    num_partitions: int = 8,
    num_groups: int = 8,
    misr_width: int = 24,
    lfsr_degree: int = 16,
) -> ScheduleDiagnosisResult:
    """One fault across every phase: per-phase partitions, compactor and
    ``diagnose``; candidates unioned in SOC-global ids."""
    candidates: Set[int] = set()
    per_phase: List[Optional[DiagnosisResult]] = []
    for phase in schedule.phases:
        local = sliced_per_bit(response, phase)
        if not local.detected:
            per_phase.append(None)
            continue
        partitions = make_partitioner(
            scheme, phase.scan_config.max_length, num_groups, lfsr_degree
        ).partitions(num_partitions)
        compactor = LinearCompactor(misr_width, phase.scan_config.num_chains)
        result = diagnose(local, phase.scan_config, partitions, compactor)
        per_phase.append(result)
        candidates.update(
            phase.global_of_local[lid] for lid in result.candidate_cells
        )
    return ScheduleDiagnosisResult(
        actual_cells=set(response.failing_cells),
        candidate_cells=candidates,
        per_phase=per_phase,
    )
