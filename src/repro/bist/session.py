"""BIST session execution: per-group signature collection under masking.

One *partition* of the scan positions into ``b`` groups costs ``b`` BIST
sessions.  Session ``g`` replays the full pattern set with the selection
hardware passing only the cells of group ``g`` to the compactor; the
signature is compared against the fault-free signature for that group.  By
MISR linearity the comparison is equivalent to checking whether the *error
signature* of the masked error stream is zero, which is what this module
computes (see :class:`repro.bist.misr.LinearCompactor`).

With ``W`` parallel scan chains the compactor keeps one signature per
response channel (per chain) — hardware-wise, ``W`` narrow signature
registers or one wide MISR read out in per-channel slices.  A session's
outcome is therefore a ``(group, channel)`` signature matrix; a channel
whose signature mismatches localizes the error to that chain's cells of
the group.  (Diagnosing with a single combined signature per session is
available as an ablation; it cannot separate cells that share a shift
position across chains.)

The hot path operates on :class:`ErrorEvents` — parallel numpy arrays of
``(position, channel, cycle)`` triples extracted from an error matrix in a
single pass — and accumulates signatures with bucketed XORs over the
compactor's batch impulse responses.  The tuple-based API is preserved as a
thin view for callers and tests.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..sim.faultsim import FaultResponse
from ..telemetry import METRICS
from .misr import LinearCompactor
from .scan import ScanConfig


class SessionOutcome:
    """Signatures of all sessions of one partition.

    ``signatures[g][w]`` is the error signature of group ``g`` on response
    channel (chain) ``w`` — ``0`` means the observed signature matched the
    fault-free one.  With exact (alias-free) mode the value is 1 iff any
    error event fell in that group on that chain.

    Either representation can be the source: the scalar kernel supplies the
    list-of-lists, the vectorized kernel a ``(group, channel)`` ``uint64``
    ``signature_matrix``; each view is derived lazily from the other, so
    vectorized consumers never materialize Python ints.
    """

    def __init__(
        self,
        signatures: Optional[List[List[int]]] = None,
        signature_matrix: Optional[np.ndarray] = None,
    ):
        if signatures is None and signature_matrix is None:
            raise ValueError("signatures or signature_matrix required")
        self._signatures = signatures
        self._signature_matrix = signature_matrix

    def __repr__(self) -> str:
        return f"SessionOutcome(signatures={self.signatures!r})"

    @property
    def signatures(self) -> List[List[int]]:
        if self._signatures is None:
            self._signatures = [
                [int(sig) for sig in row] for row in self._signature_matrix
            ]
        return self._signatures

    @property
    def signature_matrix(self) -> np.ndarray:
        """Signatures as a ``(group, channel)`` ``uint64`` array."""
        matrix = self._signature_matrix
        return matrix if matrix is not None else self._matrix()

    @property
    def num_groups(self) -> int:
        if self._signature_matrix is not None:
            return int(self._signature_matrix.shape[0])
        return len(self._signatures)

    @property
    def num_channels(self) -> int:
        if self._signature_matrix is not None:
            return int(self._signature_matrix.shape[1])
        return len(self._signatures[0]) if self._signatures else 0

    def _matrix(self) -> np.ndarray:
        """Signatures as a ``(group, channel)`` ``uint64`` array."""
        if self._signature_matrix is None:
            matrix = np.asarray(self._signatures, dtype=np.uint64)
            if matrix.ndim == 1:  # zero channels
                matrix = matrix.reshape(len(self._signatures), 0)
            self._signature_matrix = matrix
        return self._signature_matrix

    @property
    def failing_groups(self) -> List[int]:
        """Groups with a mismatch on at least one channel."""
        return [int(g) for g in np.flatnonzero((self._matrix() != 0).any(axis=1))]

    @property
    def failing_pairs(self) -> List[Tuple[int, int]]:
        """All failing ``(group, channel)`` pairs."""
        rows, cols = np.nonzero(self._matrix())
        return [(int(g), int(w)) for g, w in zip(rows, cols)]

    def failing_matrix(self, num_channels: int) -> np.ndarray:
        """Boolean array ``[group, channel]`` of mismatching signatures."""
        mat = np.zeros((self.num_groups, num_channels), dtype=bool)
        own = self._matrix() != 0
        mat[:, : own.shape[1]] = own
        return mat

    def combined(self, exact: bool = False) -> "SessionOutcome":
        """Collapse channels into one signature per group (single shared
        MISR readout — the coarser observation model, kept for the
        channel-resolution ablation).

        With real signatures the combined value is the XOR of the channel
        signatures (MISR linearity; contributions from different chains can
        alias against each other, faithfully).  ``exact=True`` treats the
        per-channel values as pass/fail flags and ORs them instead.
        """
        matrix = self._matrix()
        if exact:
            collapsed = (matrix != 0).any(axis=1).astype(np.uint64)
        elif matrix.shape[1]:
            collapsed = np.bitwise_xor.reduce(matrix, axis=1)
        else:
            collapsed = np.zeros(self.num_groups, dtype=np.uint64)
        return SessionOutcome(signature_matrix=collapsed.reshape(-1, 1))


class OutcomeViews(SequenceABC):
    """Read-only sequence of one fault's :class:`SessionOutcome`\\ s, built
    on access from its ``(partition, group, channel)`` signature tensor.

    ``tensor[p, :group_counts[p]]`` is partition ``p``'s signature matrix;
    groups beyond a partition's count are zero, so consumers that want the
    whole tensor (superposition) read ``tensor`` directly instead of
    restacking the outcomes.
    """

    __slots__ = ("tensor", "group_counts")

    def __init__(self, tensor: np.ndarray, group_counts: Sequence[int]):
        self.tensor = tensor
        self.group_counts = group_counts

    def __len__(self) -> int:
        return len(self.group_counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        count = self.group_counts[index]  # IndexError / negative as a list
        return SessionOutcome(signature_matrix=self.tensor[index, :count])

    def __repr__(self) -> str:
        return f"OutcomeViews({list(self)!r})"


@dataclass(frozen=True)
class ErrorEvents:
    """A fault's error events as parallel arrays (one entry per erroneous
    ``(cell, pattern)`` pair): shift position, response channel, and global
    compactor cycle."""

    positions: np.ndarray
    channels: np.ndarray
    cycles: np.ndarray

    def __len__(self) -> int:
        return int(self.positions.size)

    def as_tuples(self) -> List[tuple]:
        """The legacy ``(position, channel, cycle)`` triple list."""
        return [
            (int(p), int(w), int(t))
            for p, w, t in zip(self.positions, self.channels, self.cycles)
        ]

    @classmethod
    def empty(cls) -> "ErrorEvents":
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero.copy(), zero.copy())

    @classmethod
    def from_tuples(cls, events: Sequence[tuple]) -> "ErrorEvents":
        if not len(events):
            return cls.empty()
        arr = np.asarray(events, dtype=np.int64)
        return cls(arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy())

    @classmethod
    def from_response(
        cls, response: FaultResponse, scan_config: ScanConfig
    ) -> "ErrorEvents":
        """Vectorized event extraction: one ``np.nonzero`` over the stacked
        error matrix instead of a per-bit Python loop."""
        cells = list(response.cell_errors)
        if not cells:
            METRICS.incr("session.extractions")
            return cls.empty()
        matrix = np.stack([response.cell_errors[c] for c in cells])
        bits = np.unpackbits(
            matrix.view(np.uint8).reshape(len(cells), -1), axis=1, bitorder="little"
        )
        rows, patterns = np.nonzero(bits)
        all_positions, all_chains = scan_config.location_arrays()
        cell_ids = np.asarray(cells, dtype=np.int64)
        positions = all_positions[cell_ids][rows]
        # global_cycle = pattern * max_length + unload position.
        cycles = patterns.astype(np.int64) * scan_config.max_length + positions
        METRICS.incr("session.extractions")
        METRICS.incr("session.events_extracted", int(positions.size))
        return cls(positions, all_chains[cell_ids][rows], cycles)


def collect_error_event_arrays(
    response: FaultResponse, scan_config: ScanConfig
) -> ErrorEvents:
    """Flatten a fault's error matrix into compactor events (array form)."""
    return ErrorEvents.from_response(response, scan_config)


@dataclass(frozen=True)
class PopulationEvents:
    """Error events of a whole fault population, concatenated.

    ``events`` holds every fault's events back to back in fault order;
    ``fault_of[e]`` is the population index of event ``e`` (nondecreasing),
    and fault ``f``'s events occupy ``[offsets[f], offsets[f+1])``.  Within
    a fault the events appear in exactly the order
    :meth:`ErrorEvents.from_response` produces, so per-fault slices are
    bit-identical to per-fault extraction.
    """

    events: ErrorEvents
    fault_of: np.ndarray
    offsets: np.ndarray

    @property
    def num_faults(self) -> int:
        return int(self.offsets.size) - 1

    def fault_events(self, fault: int) -> ErrorEvents:
        """One fault's events as a view (the per-fault extractor's output)."""
        lo, hi = int(self.offsets[fault]), int(self.offsets[fault + 1])
        return ErrorEvents(
            self.events.positions[lo:hi],
            self.events.channels[lo:hi],
            self.events.cycles[lo:hi],
        )


def collect_population_events(
    responses: Sequence[FaultResponse], scan_config: ScanConfig
) -> PopulationEvents:
    """Extract every fault's error events in one ``np.nonzero``.

    All responses' error matrices are stacked into a single bit matrix and
    unpacked together — one kernel launch for the whole population instead
    of one per fault.  Requires a uniform pattern count (so the packed word
    vectors stack); the fused diagnosis kernel guarantees this by falling
    back to the per-fault path for mixed populations.
    """
    num_faults = len(responses)
    rows: List[np.ndarray] = []
    row_cell: List[int] = []
    row_fault: List[int] = []
    for f, response in enumerate(responses):
        for cell, vec in response.cell_errors.items():
            rows.append(vec)
            row_cell.append(cell)
            row_fault.append(f)
    METRICS.incr("session.population_extractions")
    if not rows:
        zero = np.zeros(0, dtype=np.int64)
        return PopulationEvents(
            ErrorEvents.empty(), zero, np.zeros(num_faults + 1, dtype=np.int64)
        )
    matrix = np.stack(rows)
    bits = np.unpackbits(
        matrix.view(np.uint8).reshape(len(rows), -1), axis=1, bitorder="little"
    )
    row_idx, patterns = np.nonzero(bits)
    all_positions, all_chains = scan_config.location_arrays()
    cell_ids = np.asarray(row_cell, dtype=np.int64)[row_idx]
    positions = all_positions[cell_ids]
    cycles = patterns.astype(np.int64) * scan_config.max_length + positions
    fault_of = np.asarray(row_fault, dtype=np.int64)[row_idx]
    # Rows are grouped by fault and np.nonzero walks them in row-major
    # order, so fault_of is sorted and the offsets fall out of a search.
    offsets = np.searchsorted(fault_of, np.arange(num_faults + 1))
    METRICS.incr("session.events_extracted", int(positions.size))
    return PopulationEvents(
        ErrorEvents(positions, all_chains[cell_ids], cycles), fault_of, offsets
    )


def collect_error_events(
    response: FaultResponse, scan_config: ScanConfig
) -> List[tuple]:
    """Flatten a fault's error matrix into compactor events.

    Returns ``(position, channel, global_cycle)`` triples, one per erroneous
    (cell, pattern) pair.  Thin tuple view over
    :func:`collect_error_event_arrays`.
    """
    return ErrorEvents.from_response(response, scan_config).as_tuples()


def event_contributions(
    events: ErrorEvents,
    compactor: Optional[LinearCompactor],
    total_cycles: int,
) -> Optional[np.ndarray]:
    """Per-event signature contributions, computed once per fault.

    The impulse response of an event depends only on its channel and cycle —
    not on the partition — so one batch evaluation serves every partition's
    sessions.  Returns ``None`` in exact mode (``compactor=None``), where
    session verdicts are pure set membership.
    """
    if compactor is None:
        return None
    if len(events) == 0:
        return np.zeros(0, dtype=np.uint64)
    steps = total_cycles - 1 - events.cycles
    if np.any(steps < 0) or np.any(events.cycles < 0):
        raise ValueError(f"event cycle outside session of {total_cycles}")
    return compactor.batch_impulse_responses(events.channels, steps)


def sessions_from_arrays(
    events: ErrorEvents,
    contributions: Optional[np.ndarray],
    group_of: np.ndarray,
    num_groups: int,
    num_channels: int,
) -> SessionOutcome:
    """Bucketed-XOR session kernel: accumulate the precomputed per-event
    contributions into the ``(group, channel)`` signature matrix.

    ``contributions=None`` selects the exact (alias-free) comparison: a
    bucket's signature is 1 iff any event lands in it.
    """
    METRICS.incr("session.batch_kernel_calls")
    METRICS.incr("session.sessions_compacted", num_groups)
    matrix = np.zeros((num_groups, num_channels), dtype=np.uint64)
    if len(events):
        groups = np.asarray(group_of)[events.positions]
        if contributions is None:
            matrix[groups, events.channels] = np.uint64(1)
        else:
            flat = matrix.reshape(-1)
            np.bitwise_xor.at(
                flat, groups * num_channels + events.channels, contributions
            )
    return SessionOutcome(signature_matrix=matrix)


def sessions_for_partitions(
    events: ErrorEvents,
    contributions: Optional[np.ndarray],
    partitions: Sequence,
    num_channels: int,
) -> List[SessionOutcome]:
    """All partitions' sessions of one fault in a single bucketed pass.

    The per-event contributions are partition-independent, so the whole
    ``(partition, group, channel)`` signature tensor accumulates with one
    scatter instead of one kernel launch per partition.
    """
    num_parts = len(partitions)
    max_groups = max(part.num_groups for part in partitions)
    METRICS.incr("session.batch_kernel_calls")
    METRICS.incr(
        "session.sessions_compacted",
        sum(part.num_groups for part in partitions),
    )
    tensor = np.zeros((num_parts, max_groups, num_channels), dtype=np.uint64)
    if len(events):
        group_stack = np.stack([np.asarray(part.group_of) for part in partitions])
        groups = group_stack[:, events.positions]  # [partition, event]
        flat_index = (
            np.arange(num_parts)[:, np.newaxis] * (max_groups * num_channels)
            + groups * num_channels
            + events.channels[np.newaxis, :]
        ).ravel()
        flat = tensor.reshape(-1)
        if contributions is None:
            flat[flat_index] = np.uint64(1)
        else:
            np.bitwise_xor.at(flat, flat_index, np.tile(contributions, num_parts))
    return [
        SessionOutcome(signature_matrix=tensor[k, : part.num_groups, :])
        for k, part in enumerate(partitions)
    ]


def run_partition_sessions(
    events: Union[Sequence[tuple], ErrorEvents],
    group_of: np.ndarray,
    num_groups: int,
    total_cycles: int,
    compactor: Optional[LinearCompactor],
    num_channels: int = 1,
) -> SessionOutcome:
    """Execute the ``num_groups`` sessions of one partition.

    ``events`` comes from :func:`collect_error_events` (tuple form) or
    :func:`collect_error_event_arrays`; ``group_of`` maps a shift position
    to its group index.  ``compactor=None`` selects the exact (alias-free)
    comparison used by the property tests and ablations.
    """
    if not isinstance(events, ErrorEvents):
        events = ErrorEvents.from_tuples(events)
    if compactor is not None and not hasattr(compactor, "batch_impulse_responses"):
        # Custom compactors only need the scalar impulse_response protocol.
        METRICS.incr("session.scalar_fallbacks")
        return run_partition_sessions_scalar(
            events.as_tuples(), group_of, num_groups, total_cycles, compactor,
            num_channels=num_channels,
        )
    contributions = event_contributions(events, compactor, total_cycles)
    return sessions_from_arrays(
        events, contributions, group_of, num_groups, num_channels
    )


def run_partition_sessions_scalar(
    events: Sequence[tuple],
    group_of: np.ndarray,
    num_groups: int,
    total_cycles: int,
    compactor: Optional[LinearCompactor],
    num_channels: int = 1,
) -> SessionOutcome:
    """Reference per-event implementation of :func:`run_partition_sessions`.

    Kept as the equivalence oracle for the vectorized kernel (property
    tests) and as the fallback for compactors that only implement the
    scalar ``impulse_response`` protocol.
    """
    METRICS.incr("session.scalar_kernel_calls")
    METRICS.incr("session.sessions_compacted", num_groups)
    signatures = [[0] * num_channels for _ in range(num_groups)]
    if compactor is None:
        for position, channel, _cycle in events:
            signatures[int(group_of[position])][channel] = 1
    else:
        for position, channel, cycle in events:
            group = int(group_of[position])
            signatures[group][channel] ^= compactor.impulse_response(
                channel, total_cycles - 1 - cycle
            )
    return SessionOutcome(signatures)
