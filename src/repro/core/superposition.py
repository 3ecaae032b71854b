"""Superposition-based candidate pruning (Bayraktaroglu & Orailoglu [7]).

The MISR is linear, so the XOR of two sessions' *error signatures* on the
same response channel equals the error signature of the error stream
restricted to the **symmetric difference** of the two sessions' observed
cell sets (errors in the common cells cancel).  No extra test sessions are
needed: the derived signatures come for free from the ones already
collected.

If a derived signature is zero, the symmetric-difference region (with
aliasing probability ``2**-width``) contains no error-capturing cells, and
every candidate inside it can be pruned.  This recovers additional
resolution exactly where plain intersection pruning is weakest: a cell that
shares a failing group with a true failing cell in *every* partition
survives intersection, but usually sits in some failing group pair whose
symmetric difference is error-free.

Whether a pair prunes depends only on the two signatures, never on the
candidate mask, so one pass over all pairs is already the fixed point.

The population kernel evaluates the pair rule per remaining candidate
instead of per pair.  For a fault ``f`` with signature tensor
``T[f, partition, group, channel]``, candidate ``(f, c, x)`` is pruned iff
there are partitions ``p != q`` and a group ``g' != group_of[q][x]`` with
``T[f, q, g', c] == T[f, p, group_of[p][x], c] != 0`` — exactly "``x`` lies
in the symmetric difference of two equal-signature failing sessions of
different partitions".  With the combined readout (one signature column
for every chain) the same column decides every chain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bist.scan import ScanConfig
from ..bist.session import OutcomeViews, SessionOutcome
from .diagnosis import DiagnosisResult
from .partitions import Partition

#: Candidates evaluated per broadcast block; the block's temporaries are
#: ``block x P x P`` booleans.
BLOCK_CANDIDATES = 512


def superposition_prune(
    partitions: Sequence[Partition],
    signatures: np.ndarray,
    candidate_masks: np.ndarray,
) -> np.ndarray:
    """Refine candidate masks ``[fault, chain, position]`` using derived
    (superposed) signatures.

    ``signatures`` is the ``(fault, partition, group, channel)`` ``uint64``
    error-signature tensor; it has one channel per chain, or a single
    channel for the combined readout.  Returns pruned copies of the masks.
    """
    masks = candidate_masks.copy()
    num_parts, num_channels = signatures.shape[1], signatures.shape[3]
    if num_channels not in (1, masks.shape[1]):
        raise ValueError(
            f"{num_channels} signature channels for {masks.shape[1]} chains"
        )
    matches = _cross_partition_matches(signatures)
    group_of = np.stack([np.asarray(part.group_of) for part in partitions])
    cross = ~np.eye(num_parts, dtype=bool)  # [p, q]: p != q
    parts = np.arange(num_parts)
    flat = np.flatnonzero(masks)
    fault, chain, position = np.unravel_index(flat, masks.shape)
    column = chain if num_channels > 1 else np.zeros_like(chain)
    for lo in range(0, flat.size, BLOCK_CANDIDATES):
        block = slice(lo, lo + BLOCK_CANDIDATES)
        # The candidate's own session in every partition: [candidate, p].
        index = (fault[block, None], parts, group_of[:, position[block]].T,
                 column[block, None])
        sig = signatures[index]
        # Equal sessions of other partitions, minus the other partitions'
        # own sessions (they contain x on both sides, so x is not in the
        # difference).  What remains are groups g' != group_of[q][x].
        remaining = matches[index] - (
            (sig[:, :, None] == sig[:, None, :]) & cross
        ).sum(axis=2)
        pruned = (remaining > 0).any(axis=1)
        masks.flat[flat[block][pruned]] = False
    return masks


def _cross_partition_matches(signatures: np.ndarray) -> np.ndarray:
    """``count[f, p, g, c]``: failing sessions ``(q, g')`` with ``q != p``
    whose signature on channel ``c`` equals ``T[f, p, g, c]`` (0 for passing
    sessions).  One sort over the failing sessions of the population."""
    count = np.zeros(signatures.shape, dtype=np.int64)
    fault, part, group, channel = np.nonzero(signatures)
    if not fault.size:
        return count
    value = signatures[fault, part, group, channel]
    order = np.lexsort((part, value, channel, fault))
    fault, part, group, channel, value = (
        a[order] for a in (fault, part, group, channel, value)
    )
    same_value = (
        (fault[1:] == fault[:-1]) & (channel[1:] == channel[:-1])
        & (value[1:] == value[:-1])
    )
    value_run = np.cumsum(np.r_[True, ~same_value]) - 1
    part_run = np.cumsum(np.r_[True, ~same_value | (part[1:] != part[:-1])]) - 1
    count[fault, part, group, channel] = (
        np.bincount(value_run)[value_run] - np.bincount(part_run)[part_run]
    )
    return count


def apply_superposition(
    results: Sequence[DiagnosisResult], scan_config: ScanConfig
) -> List[DiagnosisResult]:
    """Return new :class:`DiagnosisResult`s with superposition pruning
    applied on top of the intersection-pruned candidates.

    Results sharing a partition set are pruned as one population.  Every
    result must carry real MISR error signatures — the exact (alias-free)
    session mode collapses all failing signatures to 1 and would erase the
    information this pruning relies on.
    """
    results = list(results)
    if any(result.position_mask is None for result in results):
        raise ValueError("result carries no position mask")
    grid = scan_config.cell_id_grid()
    pruned: List[Optional[DiagnosisResult]] = [None] * len(results)
    for indices, partitions in _populations(results).values():
        members = [results[i] for i in indices]
        tensor = _signature_tensor(members, partitions)
        _require_real_signatures(tensor)
        masks = superposition_prune(
            partitions, tensor, np.stack([r.position_mask for r in members])
        )
        group_counts = [part.num_groups for part in partitions]
        for i, result, signatures, mask, cells in zip(
            indices, members, tensor, masks, _cells_per_mask(grid, masks)
        ):
            pruned[i] = DiagnosisResult(
                actual_cells=set(result.actual_cells),
                candidate_cells=cells,
                outcomes=OutcomeViews(signatures, group_counts),
                partitions=list(result.partitions),
                candidate_history=list(result.candidate_history),
                position_mask=mask,
            )
    return pruned


def _populations(
    results: Sequence[DiagnosisResult],
) -> Dict[tuple, Tuple[List[int], List[Partition]]]:
    """Result indices grouped by partition set and signature channel count
    (the axes of one signature tensor)."""
    groups: Dict[tuple, Tuple[List[int], List[Partition]]] = {}
    for i, result in enumerate(results):
        key = (tuple(map(id, result.partitions)),
               result.outcomes[0].num_channels)
        groups.setdefault(key, ([], list(result.partitions)))[0].append(i)
    return groups


def _signature_tensor(
    results: Sequence[DiagnosisResult], partitions: Sequence[Partition]
) -> np.ndarray:
    """Stack the results' session outcomes into the ``(fault, partition,
    group, channel)`` tensor; groups beyond a partition's count stay 0."""
    max_groups = max(part.num_groups for part in partitions)
    return np.stack([
        _outcome_tensor(result.outcomes, max_groups) for result in results
    ])


def _outcome_tensor(
    outcomes: Sequence[SessionOutcome], max_groups: int
) -> np.ndarray:
    """One result's ``(partition, group, channel)`` tensor.  The fused
    kernel's :class:`OutcomeViews` already hold it."""
    if isinstance(outcomes, OutcomeViews):
        return outcomes.tensor
    tensor = np.zeros(
        (len(outcomes), max_groups, outcomes[0].num_channels), dtype=np.uint64
    )
    for p, outcome in enumerate(outcomes):
        matrix = outcome.signature_matrix
        tensor[p, : matrix.shape[0]] = matrix
    return tensor


def _cells_per_mask(grid: np.ndarray, masks: np.ndarray) -> List[Set[int]]:
    """Candidate cell ids of every ``[chain, position]`` mask in ``masks``."""
    flat = np.flatnonzero(masks & (grid >= 0))
    fault, slot = np.divmod(flat, grid.size)
    cells = grid.reshape(-1)[slot]
    bounds = np.searchsorted(fault, np.arange(len(masks) + 1))
    return [set(cells[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]


def _require_real_signatures(tensor: np.ndarray) -> None:
    # Exact-mode outcomes use the placeholder signature 1 for every failing
    # (group, channel); a result whose nonzero signatures are all 1 is
    # taken for one.
    flat = tensor.reshape(len(tensor), -1)
    failing = (flat != 0).any(axis=1)
    placeholder = (flat <= 1).all(axis=1)
    if np.any(failing & placeholder):
        raise ValueError(
            "superposition pruning needs MISR signatures; run diagnosis with "
            "a LinearCompactor instead of exact mode"
        )
