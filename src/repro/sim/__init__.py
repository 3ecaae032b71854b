"""Simulation substrate: packed-word bit-parallel logic simulation and
event-driven single-stuck-at fault simulation."""

from .bitops import (
    WORD_BITS,
    any_bit,
    get_bit,
    num_words,
    pack_bits,
    pattern_mask,
    popcount,
    random_patterns,
    unpack_bits,
)
from .error_injection import inject_clustered_errors, inject_random_errors
from .coverage import CoverageReport, FaultProfile, coverage_report, profile_fault
from .faults import (
    CollapsedFaults,
    Fault,
    collapse_faults,
    full_fault_list,
    sample_faults,
)
from .faultsim import FaultResponse, FaultSimulator, merge_responses
from .logicsim import CompiledCircuit, SimResult

__all__ = [
    "CollapsedFaults",
    "CompiledCircuit",
    "Fault",
    "FaultResponse",
    "FaultSimulator",
    "CoverageReport",
    "FaultProfile",
    "coverage_report",
    "profile_fault",
    "inject_clustered_errors",
    "inject_random_errors",
    "SimResult",
    "WORD_BITS",
    "any_bit",
    "collapse_faults",
    "full_fault_list",
    "get_bit",
    "merge_responses",
    "num_words",
    "pack_bits",
    "pattern_mask",
    "popcount",
    "random_patterns",
    "sample_faults",
    "unpack_bits",
]
