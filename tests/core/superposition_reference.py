"""Pairwise superposition pruning, straight from the definition.

Test-only reference for :func:`repro.core.superposition.superposition_prune`:
one fault at a time, every pair of failing sessions of different
partitions on the same channel, and the symmetric difference of every
equal-signature pair removed from the candidate mask.  A single signature
column (the combined readout) observes every chain, so its pairs prune
all chains.  Runtime code must not import this module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.bist.scan import ScanConfig
from repro.bist.session import SessionOutcome
from repro.core.diagnosis import DiagnosisResult
from repro.core.partitions import Partition


def reference_prune(
    partitions: Sequence[Partition],
    outcomes: Sequence[SessionOutcome],
    candidate_mask: np.ndarray,
) -> np.ndarray:
    """Pruned copy of one fault's ``[chain, position]`` candidate mask."""
    mask = candidate_mask.copy()
    by_channel: Dict[int, List[Tuple[int, np.ndarray, int]]] = {}
    for part_idx, (part, outcome) in enumerate(zip(partitions, outcomes)):
        for group, channel in outcome.failing_pairs:
            members = part.group_of == group
            by_channel.setdefault(channel, []).append(
                (part_idx, members, outcome.signatures[group][channel])
            )
    combined = bool(outcomes) and outcomes[0].num_channels == 1
    for channel, sessions in by_channel.items():
        chains = slice(None) if combined else channel
        for i, (part_i, members_i, sig_i) in enumerate(sessions):
            for part_j, members_j, sig_j in sessions[i + 1:]:
                if part_i != part_j and sig_i == sig_j:
                    mask[chains] &= ~np.logical_xor(members_i, members_j)
    return mask


def reference_require_real_signatures(outcomes: Sequence[SessionOutcome]) -> None:
    """Reject one result whose nonzero signatures are all the exact-mode
    placeholder 1."""
    nonzero = {
        sig
        for outcome in outcomes
        for per_channel in outcome.signatures
        for sig in per_channel
        if sig != 0
    }
    if nonzero and nonzero == {1}:
        raise ValueError("superposition pruning needs MISR signatures")


def reference_apply(
    result: DiagnosisResult, scan_config: ScanConfig
) -> Tuple[np.ndarray, Set[int]]:
    """``(pruned mask, pruned candidate cells)`` of one result."""
    reference_require_real_signatures(result.outcomes)
    mask = reference_prune(result.partitions, result.outcomes, result.position_mask)
    grid = scan_config.cell_id_grid()
    return mask, {int(c) for c in grid[mask & (grid >= 0)]}
