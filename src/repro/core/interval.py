"""Interval-based partitioning with LFSR-drawn interval lengths (Section 2.2).

Groups are runs of consecutive shift positions.  Interval lengths come from
``r`` selected stages of the selection LFSR: the seed (held in the IVR)
gives the first length; at the end of each interval a carry from Shift
Counter 2 shifts the LFSR once and the next length is latched.  The seed is
chosen so that the predefined number of groups covers the whole chain — the
module includes the seed search, since "usually there exist a number of such
seeds for a given circuit" (paper, Section 2.2).

An all-zero length field is interpreted as ``2**r`` (the down-counter wraps
through its full range), avoiding zero-length intervals.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..bist.lfsr import LFSR, stage_labels
from .partitions import Partition, PartitionError


def default_length_bits(length: int, num_groups: int) -> int:
    """Number of LFSR stages to tap for the interval length.

    Chosen so the *expected* sum of ``num_groups`` drawn lengths is at least
    the chain length (mean drawn length is about ``2**(bits-1)``), which
    makes roughly half of all seeds valid and keeps the seed search short.
    """
    if length < 1 or num_groups < 1:
        raise PartitionError("length and num_groups must be positive")
    need = max(2, -(-2 * length // num_groups))  # ceil(2*length/num_groups)
    return max(1, (need - 1).bit_length())


def draw_interval_lengths(
    lfsr: LFSR, num_groups: int, length_bits: int
) -> List[int]:
    """The interval-length sequence produced from the LFSR's current state.

    The LFSR shifts exactly once between consecutive intervals, matching the
    carry-driven hardware of Fig. 1.  The length field is read from stages
    spread across the register ("the seed is associated with a number of
    bits from the LFSR"): adjacent low bits would make consecutive lengths
    overlapping windows of one bit stream, which cannot even express the
    paper's worked example (lengths 5, 6, 3, 2).  An all-zero field reads
    as the maximum length ``2**length_bits``.
    """
    positions = lfsr.spread_stage_positions(length_bits)
    fields = stage_labels(lfsr, positions, num_groups)
    return [value or 1 << length_bits for value in fields.tolist()]


def lengths_cover(lengths: Sequence[int], chain_length: int) -> bool:
    return sum(lengths) >= chain_length


def lengths_cover_exactly(lengths: Sequence[int], chain_length: int) -> bool:
    """True iff all ``len(lengths)`` groups are needed to cover the chain —
    the paper's "a pre-defined number of groups ... can cover the entire
    scan chain" (no trailing empty groups, last interval truncated)."""
    total = sum(lengths)
    return total >= chain_length > total - lengths[-1]


def find_seed(
    chain_length: int,
    num_groups: int,
    lfsr_degree: int = 16,
    length_bits: Optional[int] = None,
    start_seed: int = 1,
    max_tries: int = 1 << 16,
    exact: bool = True,
) -> int:
    """First LFSR seed (scanning from ``start_seed``) whose drawn interval
    lengths cover the chain in ``num_groups`` groups.

    ``exact`` additionally requires every group to be used (the paper's
    covering condition); with it off — or when no exact seed exists, e.g.
    more groups than cells — any covering seed qualifies.
    """
    bits = length_bits or default_length_bits(chain_length, num_groups)
    # Exact coverage needs the first num_groups-1 intervals (each >= 1 cell)
    # to leave part of the chain uncovered; skip the exact scan outright
    # when that is impossible.
    exact = exact and num_groups - 1 < chain_length
    predicates = [lengths_cover_exactly, lengths_cover] if exact else [lengths_cover]
    state_mask = (1 << lfsr_degree) - 1
    for covers in predicates:
        seed = start_seed & state_mask or 1
        for _ in range(max_tries):
            lfsr = LFSR(lfsr_degree, seed)
            if covers(draw_interval_lengths(lfsr, num_groups, bits), chain_length):
                return seed
            seed = (seed + 1) & state_mask or 1
    raise PartitionError(
        f"no covering seed found for chain={chain_length}, groups={num_groups}, "
        f"bits={bits} within {max_tries} tries"
    )


def intervals_to_partition(
    lengths: Sequence[int], chain_length: int, num_groups: int
) -> Partition:
    """Lay the drawn intervals along the chain, truncating the last one at
    the scan-output end; groups past the end stay empty."""
    group_of = np.empty(chain_length, dtype=np.int32)
    position = 0
    for group, length in enumerate(lengths):
        if position >= chain_length:
            break
        end = min(position + length, chain_length)
        group_of[position:end] = group
        position = end
    if position < chain_length:
        raise PartitionError("interval lengths do not cover the chain")
    return Partition(group_of, num_groups, scheme="interval")


class IntervalPartitioner:
    """Generates interval-based partitions; each partition uses a fresh
    covering seed found by :func:`find_seed`."""

    def __init__(
        self,
        length: int,
        num_groups: int,
        lfsr_degree: int = 16,
        length_bits: Optional[int] = None,
        seed: int = 1,
    ):
        self.length = length
        self.num_groups = num_groups
        self.lfsr_degree = lfsr_degree
        self.length_bits = length_bits or default_length_bits(length, num_groups)
        self._next_seed = seed
        self.used_seeds: List[int] = []

    def next_partition(self) -> Partition:
        seed = find_seed(
            self.length,
            self.num_groups,
            self.lfsr_degree,
            self.length_bits,
            start_seed=self._next_seed,
        )
        self.used_seeds.append(seed)
        self._next_seed = seed + 1
        lfsr = LFSR(self.lfsr_degree, seed)
        lengths = draw_interval_lengths(lfsr, self.num_groups, self.length_bits)
        return intervals_to_partition(lengths, self.length, self.num_groups)

    def partitions(self, count: int) -> List[Partition]:
        return [self.next_partition() for _ in range(count)]
