"""Fault-coverage and detectability analysis.

Scan-BIST applies pseudo-random patterns, so the paper's 128/200-pattern
sessions only exercise the random-pattern-testable part of the fault
universe, and each detected fault's *error multiplicity* (how many
(cell, pattern) events it produces) drives how hard diagnosis is — the
paper explicitly attributes its higher-than-previous DR values to faults
that "cause a large number of failing scan cells".

This module quantifies both effects for a circuit:

* coverage curve — cumulative fraction of (collapsed) faults detected
  after ``k`` patterns;
* detectability profile — per detected fault: number of detecting
  patterns, number of failing cells, failing-cell span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .bitops import WORD_BITS, popcount
from .faults import CollapsedFaults, Fault, sample_faults
from .faultsim import FaultResponse, FaultSimulator


@dataclass
class FaultProfile:
    """Detectability statistics of one fault."""

    fault: Fault
    first_detecting_pattern: Optional[int]
    num_detecting_patterns: int
    num_failing_cells: int
    failing_span: int
    error_events: int

    @property
    def detected(self) -> bool:
        return self.first_detecting_pattern is not None


def profile_fault(response: FaultResponse) -> FaultProfile:
    """Summarize a fault's error matrix."""
    if not response.detected:
        return FaultProfile(response.fault, None, 0, 0, 0, 0)
    detecting = np.zeros(
        (response.num_patterns + WORD_BITS - 1) // WORD_BITS, dtype=np.uint64
    )
    for vec in response.cell_errors.values():
        detecting |= vec
    cells = response.failing_cells
    first = None
    for word_idx in range(len(detecting)):
        word = int(detecting[word_idx])
        if word:
            first = word_idx * WORD_BITS + ((word & -word).bit_length() - 1)
            break
    return FaultProfile(
        fault=response.fault,
        first_detecting_pattern=first,
        num_detecting_patterns=popcount(detecting),
        num_failing_cells=len(cells),
        failing_span=max(cells) - min(cells) + 1,
        error_events=response.error_count(),
    )


@dataclass
class CoverageReport:
    """Fault coverage and detectability of a circuit under a pattern set."""

    circuit_name: str
    num_patterns: int
    num_faults: int
    profiles: List[FaultProfile]

    @property
    def detected_profiles(self) -> List[FaultProfile]:
        return [p for p in self.profiles if p.detected]

    @property
    def fault_coverage(self) -> float:
        if not self.profiles:
            return 0.0
        return len(self.detected_profiles) / len(self.profiles)

    def coverage_curve(self) -> List[float]:
        """Cumulative coverage after 1, 2, ..., num_patterns patterns."""
        detected_at = np.full(self.num_patterns, 0, dtype=np.int64)
        for profile in self.detected_profiles:
            detected_at[profile.first_detecting_pattern] += 1
        cumulative = np.cumsum(detected_at)
        return [float(c) / max(1, len(self.profiles)) for c in cumulative]

    def multiplicity_percentiles(
        self, percentiles: Sequence[float] = (50, 90, 99)
    ) -> List[float]:
        """Percentiles of the failing-cell count among detected faults."""
        counts = [p.num_failing_cells for p in self.detected_profiles]
        if not counts:
            return [0.0] * len(percentiles)
        return [float(np.percentile(counts, q)) for q in percentiles]


def coverage_report(
    simulator: FaultSimulator,
    faults: Optional[Sequence[Fault]] = None,
    circuit_name: str = "",
    max_faults: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> CoverageReport:
    """Profile every (or a sample of the) collapsed fault universe."""
    if faults is None:
        faults = CollapsedFaults(simulator.compiled.netlist)
    if max_faults is not None:
        faults = sample_faults(faults, max_faults, rng or np.random.default_rng(0))
    else:
        faults = list(faults)
    profiles = [
        profile_fault(simulator.simulate_fault(fault)) for fault in faults
    ]
    return CoverageReport(
        circuit_name=circuit_name or simulator.compiled.netlist.name,
        num_patterns=simulator.num_patterns,
        num_faults=len(faults),
        profiles=profiles,
    )
