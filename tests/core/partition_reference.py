"""LFSR-driven partitions, one shift at a time.

Test-only reference for the stream-read partitioners: random-selection
labels and interval lengths built by reading the tapped stages with
``peek_stages`` before every ``step()``, exactly as the selection hardware
clocks the LFSR.  Runtime code must not import this module.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bist.lfsr import IVR, LFSR


def stepped_labels(lfsr: LFSR, positions: Sequence[int], count: int) -> List[int]:
    """``count`` rounds of ``peek_stages(positions)`` then ``step()``."""
    labels = []
    for _ in range(count):
        labels.append(lfsr.peek_stages(positions))
        lfsr.step()
    return labels


def stepped_random_partitions(
    length: int, num_groups: int, count: int, lfsr_degree: int = 16,
    seed: int = 0x5EED,
) -> List[List[int]]:
    """Group labels of ``count`` random-selection partitions: the IVR reloads
    the LFSR before each partition and captures its state afterwards."""
    lfsr = LFSR(lfsr_degree, seed)
    ivr = IVR(lfsr.state)
    positions = lfsr.spread_stage_positions((num_groups - 1).bit_length())
    partitions = []
    for _ in range(count):
        ivr.reload(lfsr)
        partitions.append(stepped_labels(lfsr, positions, length))
        ivr.update_from(lfsr)
    return partitions


def stepped_interval_lengths(
    lfsr: LFSR, num_groups: int, length_bits: int
) -> List[int]:
    """Interval lengths with one shift per interval; a zero field reads as
    ``2**length_bits``."""
    positions = lfsr.spread_stage_positions(length_bits)
    return [
        value or 1 << length_bits
        for value in stepped_labels(lfsr, positions, num_groups)
    ]
