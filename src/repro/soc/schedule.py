"""Daisy-chain test scheduling with per-core pattern budgets and bypass.

Paper, Section 5: "Test patterns are transported to the cores and the test
responses are transported from the cores using the meta scan chains in a
single test session.  Test application continues until a core runs out of
test patterns.  This core is then by-passed and the process repeats for
other cores until all the cores run out of test patterns."

This module models that flow.  A :class:`TestSchedule` splits the pattern
sequence into *phases*: within a phase the set of active cores is fixed;
at a phase boundary every core whose budget is exhausted drops out and its
cells disappear from the meta chains (bypass flops close the gap), so the
chains shorten and every remaining cell's shift position moves.

Diagnosis across a schedule runs the partition sessions *per phase* (each
phase has its own chain geometry, so its own partitions) over the whole
fault population, and takes the union of the per-phase candidate sets:

* a cell can only capture errors while its core is active, so the union of
  per-phase candidates covers every truly failing cell (soundness);
* a phase in which the fault produced no errors contributes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bist.misr import LinearCompactor
from ..bist.scan import ScanConfig
from ..core.diagnosis import DiagnosisResult
from ..core.diagnosis_batch import diagnose_population
from ..core.two_step import make_partitioner
from ..sim.bitops import WORD_BITS, num_words, pattern_mask
from ..sim.faultsim import FaultResponse
from .testrail import TestRail


@dataclass
class Phase:
    """One segment of the test schedule with a fixed set of active cores."""

    index: int
    first_pattern: int
    num_patterns: int
    active_cores: Tuple[int, ...]
    scan_config: ScanConfig
    #: phase-local cell id -> SOC-global cell id
    global_of_local: List[int]

    @property
    def last_pattern(self) -> int:
        return self.first_pattern + self.num_patterns


class TestSchedule:
    """The phase structure induced by per-core pattern budgets."""

    def __init__(self, soc: TestRail, pattern_budgets: Dict[str, int]):
        self.soc = soc
        self.budgets: List[int] = []
        for core in soc.cores:
            if core.name not in pattern_budgets:
                raise ValueError(f"no pattern budget for core {core.name}")
            budget = pattern_budgets[core.name]
            if budget < 0:
                raise ValueError("pattern budgets must be non-negative")
            if budget > core.num_patterns:
                raise ValueError(
                    f"budget {budget} exceeds {core.name}'s simulated "
                    f"pattern count {core.num_patterns}"
                )
            self.budgets.append(budget)
        self.phases: List[Phase] = self._build_phases()

    def _build_phases(self) -> List[Phase]:
        starts = sorted({0, *self.budgets})
        phases: List[Phase] = []
        for start in starts:
            remaining = [b for b in self.budgets if b > start]
            if not remaining:
                break
            end = min(remaining)
            active = tuple(
                k for k, budget in enumerate(self.budgets) if budget > start
            )
            scan_config, global_of_local = self._phase_scan_config(active)
            phases.append(
                Phase(
                    index=len(phases),
                    first_pattern=start,
                    num_patterns=end - start,
                    active_cores=active,
                    scan_config=scan_config,
                    global_of_local=global_of_local,
                )
            )
        return phases

    def _phase_scan_config(
        self, active: Tuple[int, ...]
    ) -> Tuple[ScanConfig, List[int]]:
        """The meta chains with every inactive core bypassed."""
        active_set = set(active)
        global_of_local: List[int] = []
        chains: List[List[int]] = []
        for chain in self.soc.scan_config.chains:
            local_chain = []
            for gid in chain:
                if self.soc.owner(gid).core_index in active_set:
                    local_chain.append(len(global_of_local))
                    global_of_local.append(gid)
            chains.append(local_chain)
        # A phase may leave individual chains empty (all of their cores
        # bypassed) but must keep at least one cell overall.
        if not global_of_local:
            raise ValueError("phase has no active cells")
        return ScanConfig(chains), global_of_local

    @property
    def total_patterns(self) -> int:
        return max(self.budgets) if self.budgets else 0

    def describe(self) -> str:
        lines = [f"schedule over {self.soc.name}: {len(self.phases)} phase(s)"]
        for phase in self.phases:
            names = ", ".join(self.soc.cores[k].name for k in phase.active_cores)
            lines.append(
                f"  phase {phase.index}: patterns "
                f"{phase.first_pattern}..{phase.last_pattern - 1}, "
                f"{phase.scan_config.num_cells} cells, active: {names}"
            )
        return "\n".join(lines)


def _slice_response(
    response: FaultResponse,
    phase: Phase,
    local_of_global: np.ndarray,
) -> FaultResponse:
    """The fault's error matrix restricted to one phase: only patterns in
    the phase window, only cells active in the phase, re-indexed to the
    phase-local cell ids and pattern offsets.  ``local_of_global`` comes
    from :func:`_local_index`."""
    lids = local_of_global[list(response.cell_errors)]
    active = np.flatnonzero(lids >= 0)
    if not active.size:
        return FaultResponse(response.fault, {}, phase.num_patterns)
    vectors = list(response.cell_errors.values())
    window = _pattern_window(
        np.stack([vectors[i] for i in active]),
        phase.first_pattern, phase.num_patterns,
    )
    sliced = {
        lid: row for lid, row in zip(lids[active].tolist(), window) if row.any()
    }
    return FaultResponse(response.fault, sliced, phase.num_patterns)


def _pattern_window(matrix: np.ndarray, first: int, count: int) -> np.ndarray:
    """Bits ``first .. first + count - 1`` of each packed row of
    ``matrix``, shifted down to bit 0 (missing source words read as 0)."""
    word, shift = divmod(first, WORD_BITS)
    words = num_words(count)
    source = np.zeros((len(matrix), words + 1), dtype=np.uint64)
    available = matrix[:, word:word + words + 1]
    source[:, :available.shape[1]] = available
    window = source[:, :words] >> np.uint64(shift)
    if shift:
        window |= source[:, 1:] << np.uint64(WORD_BITS - shift)
    return window & pattern_mask(count)


def _local_index(phase: Phase, num_cells: int) -> np.ndarray:
    """SOC-global cell id -> phase-local id; -1 for bypassed cells."""
    local_of_global = np.full(num_cells, -1, dtype=np.int64)
    local_of_global[phase.global_of_local] = np.arange(len(phase.global_of_local))
    return local_of_global


@dataclass
class ScheduleDiagnosisResult:
    """Union of per-phase diagnosis over a full test schedule."""

    actual_cells: Set[int]
    candidate_cells: Set[int]
    per_phase: List[Optional[DiagnosisResult]]

    @property
    def detected(self) -> bool:
        return bool(self.actual_cells)

    @property
    def sound(self) -> bool:
        return self.actual_cells <= self.candidate_cells


def diagnose_schedule(
    responses: Sequence[FaultResponse],
    schedule: TestSchedule,
    scheme: str = "two-step",
    num_partitions: int = 8,
    num_groups: int = 8,
    misr_width: int = 24,
    lfsr_degree: int = 16,
) -> List[ScheduleDiagnosisResult]:
    """Diagnose a fault population across all phases of a bypassing schedule.

    Each phase gets its own partition sequence (its chain geometry is
    unique) and diagnoses the responses with errors in its window as one
    population; each fault's candidates are the union of its phases'
    candidate sets, mapped back to SOC-global cell ids.
    """
    results = [
        ScheduleDiagnosisResult(set(response.failing_cells), set(), [])
        for response in responses
    ]
    for phase in schedule.phases:
        local_of_global = _local_index(phase, schedule.soc.num_cells)
        sliced = [
            _slice_response(response, phase, local_of_global)
            for response in responses
        ]
        detected = [f for f, local in enumerate(sliced) if local.detected]
        for result in results:
            result.per_phase.append(None)
        if not detected:
            continue
        partitions = make_partitioner(
            scheme, phase.scan_config.max_length, num_groups, lfsr_degree
        ).partitions(num_partitions)
        compactor = LinearCompactor(misr_width, phase.scan_config.num_chains)
        phase_results = diagnose_population(
            [sliced[f] for f in detected], phase.scan_config, partitions,
            compactor,
        )
        for f, phase_result in zip(detected, phase_results):
            results[f].per_phase[-1] = phase_result
            results[f].candidate_cells.update(
                phase.global_of_local[lid]
                for lid in phase_result.candidate_cells
            )
    return results
