"""Population-fused diagnosis: diagnose every fault in one scatter.

:func:`repro.core.diagnosis.diagnose` already collapses all sessions of all
partitions of *one* fault into a single signature scatter, but callers
still loop it over the fault population — hundreds of tiny numpy launches
whose Python dispatch dominates once fault simulation itself is batched.
This module fuses the population axis too:

1. every fault's :class:`~repro.bist.session.ErrorEvents` are extracted in
   one ``np.nonzero`` (:func:`~repro.bist.session.collect_population_events`),
2. one ``batch_impulse_responses`` call covers every event of every fault,
3. one ``np.bitwise_xor.at`` scatter fills the whole
   ``(fault, partition, group, channel)`` signature tensor (exact mode is a
   boolean scatter),
4. one batched matmul against the partitions' packed group-membership
   words turns the session verdicts into packed candidate words (32
   positions each), and a cumulative AND over the partition axis yields
   every fault's candidate mask; a popcount of each prefix is its
   ``candidate_history`` (:func:`verdict_prefixes`).

The results are bit-identical :class:`~repro.core.diagnosis.DiagnosisResult`
objects whose outcomes are lazy, read-only
:class:`~repro.bist.session.OutcomeViews` over the fault's slice of the
signature tensor, so Table 1 / Figure 5 / superposition consumers are
untouched.

Every population runs fused, :data:`DEFAULT_CHUNK` faults per launch
(bounding the event tensor).  Only inputs the stacked kernel cannot take
— a compactor with the scalar ``impulse_response`` protocol only, or
responses with mixed pattern counts — fall back to the per-fault
:func:`~repro.core.diagnosis.diagnose`, which is also the oracle the
equivalence tests hold this kernel against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bist.misr import LinearCompactor
from ..bist.scan import ScanConfig
from ..bist.session import OutcomeViews, collect_population_events
from ..sim.bitops import (
    count_bits,
    num_position_words,
    position_words,
    word_positions,
)
from ..sim.faultsim import FaultResponse
from ..telemetry import METRICS, span
from .diagnosis import DiagnosisResult, diagnose
from .partitions import Partition, validate_partition_set

#: Default faults fused per kernel launch.  The transient arrays scale with
#: ``faults x partitions x events-per-fault``; 256 keeps the largest
#: benchmark's event tensor in the tens of megabytes while amortizing the
#: Python dispatch over hundreds of faults.
DEFAULT_CHUNK = 256


def diagnose_population(
    responses: Sequence[FaultResponse],
    scan_config: ScanConfig,
    partitions: Sequence[Partition],
    compactor: Optional[LinearCompactor] = None,
    channel_resolution: bool = True,
) -> List[DiagnosisResult]:
    """Diagnose a whole fault population through the fused kernel.

    Bit-identical to ``[diagnose(r, ...) for r in responses]``.  Falls
    back to that per-fault loop when the compactor only implements the
    scalar ``impulse_response`` protocol, or the responses disagree on
    the pattern count (the stacked extraction needs uniform word vectors).
    """
    responses = list(responses)
    partitions = list(partitions)
    if not responses:
        return []
    batched_compactor = compactor is None or hasattr(
        compactor, "batch_impulse_responses"
    )
    if not batched_compactor or len({r.num_patterns for r in responses}) > 1:
        METRICS.incr("diagnosis.perfault_faults", len(responses))
        return [
            diagnose(
                response, scan_config, partitions, compactor,
                channel_resolution=channel_resolution,
            )
            for response in responses
        ]
    validate_partition_set(partitions)
    if partitions[0].length != scan_config.max_length:
        raise ValueError(
            f"partition length {partitions[0].length} != scan configuration "
            f"length {scan_config.max_length}"
        )
    return [
        result
        for start in range(0, len(responses), DEFAULT_CHUNK)
        for result in _diagnose_chunk(
            responses[start:start + DEFAULT_CHUNK], scan_config, partitions,
            compactor, channel_resolution,
        )
    ]


def scatter_population_signatures(
    tensor: np.ndarray,
    fault_of: np.ndarray,
    event_groups: np.ndarray,
    event_channels: Optional[np.ndarray],
    contributions: Optional[np.ndarray],
) -> np.ndarray:
    """One scatter for every event of every fault of every partition.

    ``tensor`` is the ``(fault, partition, group, channel)`` ``uint64``
    signature accumulator (modified in place); ``event_groups[p, e]`` is
    event ``e``'s group under partition ``p``; ``fault_of`` maps events to
    population indices.  ``event_channels=None`` means a single-channel
    layout (the failing-vector scheme).  ``contributions=None`` selects the
    exact (alias-free) boolean scatter; otherwise the per-event impulse
    responses XOR-accumulate.  Shared by the failing-cell and
    failing-vector fused kernels.
    """
    num_faults, num_parts, max_groups, num_channels = tensor.shape
    if event_groups.size == 0:
        return tensor
    flat = tensor.reshape(-1)
    index = (
        (fault_of[np.newaxis, :] * num_parts
         + np.arange(num_parts)[:, np.newaxis]) * (max_groups * num_channels)
        + event_groups * num_channels
    )
    if event_channels is not None:
        index = index + event_channels[np.newaxis, :]
    index = index.ravel()
    if contributions is None:
        flat[index] = np.uint64(1)
    else:
        np.bitwise_xor.at(flat, index, np.tile(contributions, num_parts))
    return tensor


def _diagnose_chunk(
    responses: Sequence[FaultResponse],
    scan_config: ScanConfig,
    partitions: Sequence[Partition],
    compactor: Optional[LinearCompactor],
    channel_resolution: bool,
) -> List[DiagnosisResult]:
    """The fused kernel proper: one chunk of faults in a handful of ops."""
    num_faults = len(responses)
    num_parts = len(partitions)
    num_channels = scan_config.num_chains
    max_groups = max(part.num_groups for part in partitions)
    total_cycles = scan_config.total_cycles(responses[0].num_patterns)

    with span("diagnose.batch_kernel", faults=num_faults,
              partitions=num_parts) as sp:
        population = collect_population_events(responses, scan_config)
        events = population.events
        METRICS.incr("diagnosis.batch_kernel_calls")
        METRICS.incr("diagnosis.batch_faults", num_faults)
        METRICS.observe("diagnosis.chunk_faults", num_faults)
        METRICS.observe("diagnosis.events_per_launch", len(events))
        METRICS.gauge("diagnosis.last_events_per_launch", len(events))
        sp.add("events", len(events))

        exact = compactor is None
        if exact:
            contributions = None
        else:
            steps = total_cycles - 1 - events.cycles
            if np.any(steps < 0) or np.any(events.cycles < 0):
                raise ValueError(
                    f"event cycle outside session of {total_cycles}"
                )
            contributions = compactor.batch_impulse_responses(
                events.channels, steps
            )

        tensor = np.zeros(
            (num_faults, num_parts, max_groups, num_channels), dtype=np.uint64
        )
        if len(events):
            group_stack = np.stack(
                [np.asarray(part.group_of) for part in partitions]
            )
            scatter_population_signatures(
                tensor, population.fault_of,
                group_stack[:, events.positions], events.channels,
                contributions,
            )
        METRICS.incr(
            "session.sessions_compacted",
            num_faults * sum(part.num_groups for part in partitions),
        )

        # Session verdicts -> packed per-position candidate words.  The
        # combined readout has one verdict column, broadcast to every chain.
        if channel_resolution:
            signatures = tensor
        elif exact:
            signatures = (tensor != 0).any(axis=3, keepdims=True).astype(
                np.uint64
            )
        else:
            signatures = np.bitwise_xor.reduce(tensor, axis=3, keepdims=True)
        failing = np.broadcast_to(
            (signatures != 0).transpose(0, 1, 3, 2),
            (num_faults, num_parts, num_channels, max_groups),
        )
        history, final = verdict_prefixes(
            failing, group_membership(partitions),
            position_words(scan_config.presence_mask()),
        )
        # [fault, chain, position]
        final_mask = word_positions(final, scan_config.max_length)

        fault_idx, chain_idx, pos_idx = np.nonzero(final_mask)
        cells = scan_config.cell_id_grid()[chain_idx, pos_idx].tolist()
        bounds = np.searchsorted(fault_idx, np.arange(num_faults + 1)).tolist()
        history_rows = history.T.tolist()

    group_counts = [part.num_groups for part in partitions]
    return [
        DiagnosisResult(
            actual_cells=set(response.cell_errors),
            candidate_cells=set(cells[lo:hi]),
            outcomes=OutcomeViews(signatures[f], group_counts),
            partitions=partitions,
            candidate_history=history_rows[f],
            position_mask=final_mask[f],
        )
        for f, (response, lo, hi) in enumerate(
            zip(responses, bounds, bounds[1:])
        )
    ]


def group_membership(partitions: Sequence[Partition]) -> np.ndarray:
    """``membership[p, g, w]``: the positions in group ``g`` of partition
    ``p`` as packed position words (:meth:`Partition.group_words`), in
    ``float64`` for :func:`verdict_prefixes`; absent groups are empty."""
    membership = np.zeros((
        len(partitions),
        max(part.num_groups for part in partitions),
        num_position_words(partitions[0].length),
    ), dtype=np.float64)
    for p, part in enumerate(partitions):
        membership[p, : part.num_groups] = part.group_words()
    return membership


def verdict_prefixes(
    failing: np.ndarray,
    membership: np.ndarray,
    presence: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every prefix of the candidate intersection, on packed words.

    ``failing[f, p, c, g]`` is the verdict of session ``(p, g)`` on
    channel ``c`` for fault ``f``; ``membership`` comes from
    :func:`group_membership`; ``presence[c, w]`` (optional) masks
    positions without a cell.  A position is a candidate under partition
    ``p`` iff its group failed: the OR of the failing groups' membership
    words.  The groups are disjoint, so the OR is a sum, and one batched
    ``float64`` matmul computes every plane exactly (each word is below
    ``2**32``).  A cumulative AND along the partition axis then yields
    every prefix.

    Returns ``(history, final)``: ``history[p, f]`` is fault ``f``'s
    candidate count after the first ``p + 1`` partitions (a popcount;
    padding bits are zero) and ``final[f, c, w]`` the last prefix's words.
    Shared by the failing-cell and failing-vector fused kernels.
    """
    num_faults, num_parts, num_channels, max_groups = failing.shape
    verdicts = failing.transpose(1, 0, 2, 3).reshape(
        num_parts, num_faults * num_channels, max_groups
    )
    planes = (
        np.matmul(verdicts.astype(np.float64), membership)
        .astype(np.uint32)
        .reshape(num_parts, num_faults, num_channels, -1)
    )
    if presence is not None:
        planes[0] &= presence
    # An in-place running AND: np.bitwise_and.accumulate along the outer
    # axis walks it element by element and is an order of magnitude slower.
    for p in range(1, num_parts):
        planes[p] &= planes[p - 1]
    return count_bits(planes, axis=(2, 3)), planes[-1]
