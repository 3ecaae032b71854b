"""The paper's contribution: partitioning schemes (random-selection,
interval-based, two-step, plus baselines), the Fig. 1 selection hardware,
the diagnosis engine and superposition pruning."""

from .binary_search import BinarySearchResult, binary_search_diagnose
from .chainmap import chain_map
from .ordering import (
    interleaved_scan_order,
    permuted_scan_config,
    random_scan_order,
    response_span,
    reversed_scan_order,
)
from .vector_diagnosis import (
    VectorDiagnosisResult,
    diagnose_vectors,
    diagnose_vectors_population,
    failing_vectors,
    vector_diagnostic_resolution,
)
from .deterministic import DeterministicPartitioner, fixed_interval_partition
from .diagnosis import (
    DiagnosisResult,
    diagnose,
    diagnostic_resolution,
    dr_by_partition_count,
    partitions_to_reach_dr,
)
from .diagnosis_batch import (
    diagnose_population,
    scatter_population_signatures,
)
from .interval import (
    IntervalPartitioner,
    default_length_bits,
    draw_interval_lengths,
    find_seed,
    intervals_to_partition,
    lengths_cover,
    lengths_cover_exactly,
)
from .partitions import (
    Partition,
    PartitionError,
    candidate_positions,
    validate_partition_set,
)
from .planner import (
    CampaignPlan,
    expected_dr,
    group_failure_probability,
    expected_population_dr,
    partitions_needed,
    plan_campaign,
    plan_campaign_for_population,
)
from .random_selection import RandomSelectionPartitioner
from .selection_hw import SelectionHardware
from .superposition import apply_superposition, superposition_prune
from .time_model import (
    TimeEstimate,
    adaptive_cycles,
    campaign_cycles,
    cycles_to_reach_dr,
    session_cycles,
)
from .two_step import TwoStepPartitioner, make_partitioner

__all__ = [
    "BinarySearchResult",
    "DeterministicPartitioner",
    "DiagnosisResult",
    "IntervalPartitioner",
    "Partition",
    "PartitionError",
    "RandomSelectionPartitioner",
    "SelectionHardware",
    "TwoStepPartitioner",
    "VectorDiagnosisResult",
    "apply_superposition",
    "diagnose_population",
    "diagnose_vectors",
    "diagnose_vectors_population",
    "failing_vectors",
    "scatter_population_signatures",
    "interleaved_scan_order",
    "permuted_scan_config",
    "random_scan_order",
    "response_span",
    "reversed_scan_order",
    "vector_diagnostic_resolution",
    "binary_search_diagnose",
    "CampaignPlan",
    "chain_map",
    "expected_dr",
    "group_failure_probability",
    "partitions_needed",
    "expected_population_dr",
    "plan_campaign",
    "plan_campaign_for_population",
    "candidate_positions",
    "default_length_bits",
    "diagnose",
    "diagnostic_resolution",
    "dr_by_partition_count",
    "draw_interval_lengths",
    "find_seed",
    "fixed_interval_partition",
    "intervals_to_partition",
    "lengths_cover",
    "lengths_cover_exactly",
    "make_partitioner",
    "partitions_to_reach_dr",
    "TimeEstimate",
    "adaptive_cycles",
    "campaign_cycles",
    "cycles_to_reach_dr",
    "session_cycles",
    "superposition_prune",
    "validate_partition_set",
]
