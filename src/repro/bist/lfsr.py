"""Linear feedback shift registers and primitive polynomial table.

The scan-BIST architecture of the paper (Fig. 1) uses one LFSR both as the
source of pseudo-random scan-cell labels (random-selection partitioning) and
of pseudo-random interval lengths (interval-based partitioning); the Initial
Value Register (IVR) reloads it at session boundaries.  A degree-16
primitive polynomial is used for the paper's experiments.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Maximal-length (primitive polynomial) tap positions for Fibonacci LFSRs,
#: one entry per degree; taps are 1-indexed exponents (XAPP052 table).
PRIMITIVE_TAPS: Dict[int, Tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 6, 2, 1),
    27: (27, 5, 2, 1),
    28: (28, 25),
    29: (29, 27),
    30: (30, 6, 4, 1),
    31: (31, 28),
    32: (32, 22, 2, 1),
}


class LFSR:
    """Fibonacci LFSR with configurable primitive taps.

    The register shifts right; the feedback (XOR of tapped stages) enters
    the most-significant bit and the least-significant bit is the serial
    output.  Stage ``k`` (1-based, stage ``degree`` being the output stage)
    lives in bit ``degree - k``, so the highest tap — always present in a
    characteristic polynomial — is the output bit and the all-zero state is
    unreachable from any nonzero seed.  With the taps of
    :data:`PRIMITIVE_TAPS` the state sequence has period ``2**degree - 1``.
    """

    def __init__(self, degree: int, seed: int = 1, taps: Tuple[int, ...] = ()):
        if degree < 2:
            raise ValueError("degree must be at least 2")
        if not taps:
            if degree not in PRIMITIVE_TAPS:
                raise ValueError(f"no primitive taps known for degree {degree}")
            taps = PRIMITIVE_TAPS[degree]
        if any(t < 1 or t > degree for t in taps):
            raise ValueError(f"tap positions {taps} out of range for degree {degree}")
        self.degree = degree
        self.taps = tuple(sorted(set(taps), reverse=True))
        self._tap_mask = 0
        for t in self.taps:
            self._tap_mask |= 1 << (degree - t)
        self._state_mask = (1 << degree) - 1
        self.load(seed)

    # -- state handling -----------------------------------------------------

    def load(self, value: int) -> None:
        """Load the register (IVR reload); the all-zero state is rejected."""
        value &= self._state_mask
        if value == 0:
            raise ValueError("LFSR state must be nonzero")
        self.state = value

    def copy(self) -> "LFSR":
        clone = LFSR(self.degree, self.state, self.taps)
        return clone

    # -- stepping -----------------------------------------------------------

    def step(self) -> int:
        """Advance one clock; returns the serial output bit (pre-shift LSB)."""
        out = self.state & 1
        feedback = _parity(self.state & self._tap_mask)
        self.state = (self.state >> 1) | (feedback << (self.degree - 1))
        return out

    def step_many(self, count: int) -> List[int]:
        """Advance ``count`` clocks, returning the output bit stream."""
        return self.output_bits(count).tolist()

    def output_bits(self, count: int) -> np.ndarray:
        """Advance ``count`` clocks, returning the output bits as uint8.

        The same bits as ``count`` calls of :meth:`step`, from one tight
        integer loop.  The register shifts right, so stage ``p`` after
        ``t`` clocks holds output bit ``t + p``: any run of stage values
        can be read off this stream (see :func:`stage_labels`)."""
        bits = bytearray(count)
        state, taps, top = self.state, self._tap_mask, self.degree - 1
        for i in range(count):
            bits[i] = state & 1
            state = (state >> 1) | (((state & taps).bit_count() & 1) << top)
        self.state = state
        return np.frombuffer(bits, dtype=np.uint8)

    def peek_bits(self, count: int) -> int:
        """The low ``count`` bits of the current state (the value the
        selection hardware compares against the test counter / loads into
        Shift Counter 2)."""
        if count > self.degree:
            raise ValueError("cannot peek more bits than the LFSR degree")
        return self.state & ((1 << count) - 1)

    def peek_stages(self, positions: Sequence[int]) -> int:
        """A label built from arbitrary register stages (bit positions).

        The paper's selection hardware takes "the output of any r stages of
        the LFSR" as the scan-cell label; spreading the tapped stages across
        the register keeps consecutive cells' labels decorrelated (adjacent
        low bits would just be a sliding window of the output stream)."""
        label = 0
        for j, pos in enumerate(positions):
            if not 0 <= pos < self.degree:
                raise ValueError(f"stage position {pos} out of range")
            label |= ((self.state >> pos) & 1) << j
        return label

    def spread_stage_positions(self, count: int) -> List[int]:
        """``count`` stage positions spread evenly across the register."""
        if count > self.degree:
            raise ValueError("cannot tap more stages than the LFSR degree")
        stride = self.degree // count
        return [j * stride for j in range(count)]

    def period(self, limit: int = 1 << 22) -> int:
        """Cycle length from the current state (exhaustive; small degrees)."""
        start = self.state
        probe = self.copy()
        for count in range(1, limit + 1):
            probe.step()
            if probe.state == start:
                return count
        raise RuntimeError("period exceeds limit")


def _parity(value: int) -> int:
    return value.bit_count() & 1


def stage_labels(lfsr: LFSR, positions: Sequence[int], count: int) -> np.ndarray:
    """Labels read from register stages ``positions`` before each of the
    next ``count`` clocks, advancing the LFSR by ``count``.

    Equals ``count`` rounds of ``peek_stages(positions)`` then ``step()``.
    Stage ``p`` before clock ``t`` is output bit ``t + p``, so label ``t``
    is ``sum(stream[t + pos_j] << j)``; the bits past the last clock are
    the register's final state, read without stepping."""
    for pos in positions:
        if not 0 <= pos < lfsr.degree:
            raise ValueError(f"stage position {pos} out of range")
    head = lfsr.output_bits(count)
    tail = (lfsr.state >> np.arange(lfsr.degree, dtype=np.int64)) & 1
    stream = np.concatenate([head, tail.astype(np.uint8)])
    labels = np.zeros(count, dtype=np.int32)
    for j, pos in enumerate(positions):
        labels |= stream[pos:pos + count].astype(np.int32) << j
    return labels


class IVR:
    """Initial Value Register of the Fig. 1 architecture.

    Holds the seed that reloads the LFSR at the start of every BIST session;
    at the end of a *partition* it is updated with the LFSR's current state
    so the next partition differs.
    """

    def __init__(self, value: int):
        self.value = value

    def reload(self, lfsr: LFSR) -> None:
        lfsr.load(self.value)

    def update_from(self, lfsr: LFSR) -> None:
        self.value = lfsr.state
