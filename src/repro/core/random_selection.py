"""Random-selection partitioning (Rajski & Tyszer [5]).

Each scan cell's group label within a partition is read from ``r`` stages of
the selection LFSR as it steps once per shift cycle; ``b = 2**r`` groups.
Session ``g`` selects the cells whose label equals the content of Test
Counter 1.  At the end of a partition the IVR is updated with the current
LFSR state, so the next partition draws an unrelated labelling.

A partition's labels come from one read of the LFSR's output stream
(:func:`repro.bist.lfsr.stage_labels`); the cycle-level hardware model in
:mod:`repro.core.selection_hw` steps the same LFSR shift by shift.
"""

from __future__ import annotations

from typing import List

from ..bist.lfsr import IVR, LFSR, stage_labels
from .partitions import Partition, PartitionError


def _label_bits(num_groups: int) -> int:
    bits = (num_groups - 1).bit_length()
    if 1 << bits != num_groups:
        raise PartitionError(
            f"random-selection needs a power-of-two group count, got {num_groups}"
        )
    return bits


class RandomSelectionPartitioner:
    """Generates successive random-selection partitions, mirroring the
    LFSR + IVR behaviour of the Fig. 1 architecture."""

    def __init__(
        self,
        length: int,
        num_groups: int,
        lfsr_degree: int = 16,
        seed: int = 0x5EED,
    ):
        if length < 1:
            raise PartitionError("chain length must be positive")
        self.length = length
        self.num_groups = num_groups
        self._label_bits = _label_bits(num_groups)
        if self._label_bits > lfsr_degree:
            raise PartitionError("more label bits than LFSR stages")
        self.lfsr = LFSR(lfsr_degree, seed)
        self.ivr = IVR(self.lfsr.state)
        self._stage_positions = self.lfsr.spread_stage_positions(self._label_bits)

    def next_partition(self) -> Partition:
        """Labels for one partition; advances the IVR for the next."""
        self.ivr.reload(self.lfsr)
        group_of = stage_labels(self.lfsr, self._stage_positions, self.length)
        self.ivr.update_from(self.lfsr)
        return Partition(group_of, self.num_groups, scheme="random-selection")

    def partitions(self, count: int) -> List[Partition]:
        return [self.next_partition() for _ in range(count)]
