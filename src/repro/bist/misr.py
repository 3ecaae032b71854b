"""Multiple-input signature register (MISR) and its linear error model.

Two implementations with identical semantics:

* :class:`MISR` — the literal hardware: step the register once per shift
  cycle, XOR-ing the incoming response bits into designated stages.  Used
  for validation and small examples.
* :class:`LinearCompactor` — an O(events · log cycles) computation of the
  **error signature** (observed signature XOR fault-free signature), which
  by linearity equals the signature of the error stream alone compacted
  from the all-zero state.  Diagnosis only ever needs error signatures, and
  real fault responses are sparse, so this is what the experiment harness
  uses.  Aliasing (a nonzero error stream compacting to signature 0) is
  modelled faithfully by both.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .lfsr import PRIMITIVE_TAPS


def _char_poly_mask(width: int) -> int:
    """Low coefficients of the MISR's characteristic (primitive) polynomial
    ``p(x) = x**width + Σ x**t + 1``: bit ``i`` set iff ``x**i`` has a
    nonzero coefficient, for ``i < width``.  The constant term is always
    present, so bit 0 is always set — this is what makes the Galois
    transition matrix the (invertible) companion matrix of ``p``."""
    taps = PRIMITIVE_TAPS[width]
    mask = 1  # the x**0 term
    for t in taps:
        if t < width:
            mask |= 1 << t
    return mask


class MISR:
    """Galois-form multi-input signature register.

    ``width`` stages; ``num_inputs`` parallel response bits per cycle (one
    per scan chain), injected at stages spread evenly across the register.
    """

    def __init__(self, width: int = 16, num_inputs: int = 1):
        if width not in PRIMITIVE_TAPS:
            raise ValueError(f"no primitive polynomial of degree {width} available")
        if not 1 <= num_inputs <= width:
            raise ValueError("num_inputs must be between 1 and width")
        self.width = width
        self.num_inputs = num_inputs
        self._poly = _char_poly_mask(width)
        self._mask = (1 << width) - 1
        stride = width // num_inputs
        self.input_stages: Tuple[int, ...] = tuple(i * stride for i in range(num_inputs))
        self.state = 0

    def reset(self, value: int = 0) -> None:
        self.state = value & self._mask

    def step(self, inputs: Sequence[int] = ()) -> None:
        """One shift cycle: advance the register (left-shift Galois form,
        multiplication by ``x`` modulo the characteristic polynomial), then
        inject the response bits (0 for masked cells)."""
        top = (self.state >> (self.width - 1)) & 1
        self.state = (self.state << 1) & self._mask
        if top:
            self.state ^= self._poly
        for stage, bit in zip(self.input_stages, inputs):
            if bit:
                self.state ^= 1 << stage

    def compact(self, stream: Iterable[Sequence[int]], init: int = 0) -> int:
        """Signature of a whole stream of per-cycle input tuples."""
        self.reset(init)
        for inputs in stream:
            self.step(inputs)
        return self.state

    # -- linear-algebra view -------------------------------------------------

    def transition_columns(self) -> List[int]:
        """The state-update matrix A as column masks: column ``j`` is
        ``A @ e_j`` where ``e_j`` is the unit state with only stage ``j``."""
        columns = []
        for j in range(self.width):
            self.reset(1 << j)
            self.step()
            columns.append(self.state)
        self.reset(0)
        return columns


class LinearCompactor:
    """Fast error-signature evaluation via precomputed matrix powers.

    For an error event (input channel ``c``, global shift cycle ``t``) in a
    session of ``total_cycles`` cycles, the contribution to the final
    signature is ``A**(total_cycles - 1 - t) @ inject_c`` where ``inject_c``
    is the unit vector at channel ``c``'s injection stage.  The error
    signature is the XOR of all contributions — linearity of the MISR.
    """

    #: Longest impulse-response table that will be materialized (entries);
    #: longer step counts fall back to square-and-multiply.
    TABLE_LIMIT = 1 << 22

    def __init__(self, width: int = 16, num_inputs: int = 1, max_cycles_log2: int = 40):
        self.width = width
        self.num_inputs = num_inputs
        misr = MISR(width, num_inputs)
        self.input_stages = misr.input_stages
        base = misr.transition_columns()
        # Powers A^(2^k) as column-mask matrices.
        self._powers: List[List[int]] = [base]
        for _ in range(max_cycles_log2 - 1):
            prev = self._powers[-1]
            self._powers.append(_mat_mul(prev, prev))
        self._response_cache: Dict[Tuple[int, int], int] = {}
        self._tables: Dict[int, "np.ndarray"] = {}

    def _apply_power(self, exponent: int, vector: int) -> int:
        """``A**exponent @ vector`` over GF(2)."""
        k = 0
        while exponent:
            if exponent & 1:
                vector = _mat_vec(self._powers[k], vector)
            exponent >>= 1
            k += 1
            if k >= len(self._powers) and exponent:
                raise ValueError("cycle count exceeds precomputed matrix powers")
        return vector

    def impulse_response(self, channel: int, steps_remaining: int) -> int:
        """Signature contribution of a single error bit on ``channel`` with
        ``steps_remaining`` further shift cycles after its injection."""
        key = (channel, steps_remaining)
        cached = self._response_cache.get(key)
        if cached is not None:
            return cached
        vector = 1 << self.input_stages[channel]
        result = self._apply_power(steps_remaining, vector)
        self._response_cache[key] = result
        return result

    def error_signature(
        self, events: Iterable[Tuple[int, int]], total_cycles: int
    ) -> int:
        """Error signature of a sparse error stream.

        ``events`` yields ``(channel, cycle)`` pairs (0-based global shift
        cycles); the MISR steps once per cycle for ``total_cycles`` cycles.
        """
        signature = 0
        for channel, cycle in events:
            if not 0 <= cycle < total_cycles:
                raise ValueError(f"cycle {cycle} outside session of {total_cycles}")
            signature ^= self.impulse_response(channel, total_cycles - 1 - cycle)
        return signature

    def impulse_table(self, channel: int, max_steps: int) -> "np.ndarray":
        """``A**s @ inject_c`` for ``s = 0 .. max_steps`` as a ``uint64``
        array, cached and grown on demand by doubling: with ``n`` entries
        known, ``A**n`` maps ``table[0:n]`` onto ``table[n:2n]`` in one
        whole-array GF(2) product.  One table serves every partition,
        session and fault of a workload — the batch kernel reduces to a
        single gather."""
        table = self._tables.get(channel)
        if table is not None and table.size > max_steps:
            return table
        grown = np.empty(max_steps + 1, dtype=np.uint64)
        if table is None:
            grown[0] = 1 << self.input_stages[channel]
            filled = 1
        else:
            # Restart from a power of two so every step's A**n is one of
            # the precomputed A**(2**k).
            filled = 1 << (table.size.bit_length() - 1)
            grown[:filled] = table[:filled]
        while filled <= max_steps:
            count = min(filled, max_steps + 1 - filled)
            power = self._powers[filled.bit_length() - 1]
            grown[filled:filled + count] = _mat_vec_array(power, grown[:count])
            filled += count
        self._tables[channel] = grown
        return grown

    def batch_impulse_responses(
        self, channels: "np.ndarray", steps_remaining: "np.ndarray"
    ) -> "np.ndarray":
        """Vectorized :meth:`impulse_response` over parallel event arrays.

        For session-scale step counts this is a table lookup per channel
        (see :meth:`impulse_table`); beyond :attr:`TABLE_LIMIT` it falls
        back to square-and-multiply over GF(2) with the whole event
        population advanced at once — for each set bit ``k`` of the
        exponents, the affected state vectors are multiplied by
        ``A**(2**k)`` in a single sweep over the register's columns.
        Signatures fit ``uint64`` because
        :data:`~repro.bist.lfsr.PRIMITIVE_TAPS` caps the width at 32.
        """
        channels = np.asarray(channels, dtype=np.int64)
        exponents = np.asarray(steps_remaining, dtype=np.int64)
        if np.any(exponents < 0):
            raise ValueError("steps_remaining must be non-negative")
        if exponents.size == 0:
            return np.zeros(0, dtype=np.uint64)
        max_step = int(exponents.max())
        if max_step < self.TABLE_LIMIT:
            out = np.empty(exponents.shape, dtype=np.uint64)
            for channel in np.unique(channels):
                selected = channels == channel
                out[selected] = self.impulse_table(int(channel), max_step)[
                    exponents[selected]
                ]
            return out
        stages = np.asarray(self.input_stages, dtype=np.uint64)
        vectors = np.uint64(1) << stages[channels]
        exponents = exponents.copy()
        k = 0
        while np.any(exponents):
            if k >= len(self._powers):
                raise ValueError("cycle count exceeds precomputed matrix powers")
            active = (exponents & 1).astype(bool)
            if np.any(active):
                vectors[active] = _mat_vec_array(self._powers[k], vectors[active])
            exponents >>= 1
            k += 1
        return vectors


class ParityCompactor:
    """Single-XOR (parity) response compaction — the degenerate width-1
    linear compactor.

    Every response bit XORs into one flip-flop, so a session's error
    signature is simply the parity of its error-event count: any group
    capturing an *even* number of errors aliases to "pass".  Included as
    the lower anchor of the compaction-aliasing ablation; it exposes why
    signature registers need width.

    Drop-in compatible with :class:`LinearCompactor` (same
    ``impulse_response`` / ``error_signature`` interface).
    """

    width = 1

    def __init__(self, num_inputs: int = 1):
        self.num_inputs = num_inputs
        self.input_stages = tuple(0 for _ in range(num_inputs))

    def impulse_response(self, channel: int, steps_remaining: int) -> int:
        if not 0 <= channel < self.num_inputs:
            raise ValueError(f"channel {channel} out of range")
        if steps_remaining < 0:
            raise ValueError("steps_remaining must be non-negative")
        return 1

    def error_signature(
        self, events: Iterable[Tuple[int, int]], total_cycles: int
    ) -> int:
        signature = 0
        for channel, cycle in events:
            if not 0 <= cycle < total_cycles:
                raise ValueError(f"cycle {cycle} outside session of {total_cycles}")
            signature ^= self.impulse_response(channel, total_cycles - 1 - cycle)
        return signature

    def batch_impulse_responses(
        self, channels: "np.ndarray", steps_remaining: "np.ndarray"
    ) -> "np.ndarray":
        """Vectorized impulse responses: every event contributes parity 1."""
        channels = np.asarray(channels, dtype=np.int64)
        steps = np.asarray(steps_remaining, dtype=np.int64)
        if np.any(channels < 0) or np.any(channels >= self.num_inputs):
            raise ValueError("channel out of range")
        if np.any(steps < 0):
            raise ValueError("steps_remaining must be non-negative")
        return np.ones(channels.shape, dtype=np.uint64)


def _mat_vec(columns: Sequence[int], vector: int) -> int:
    """Matrix-vector product over GF(2) with the matrix as column masks."""
    out = 0
    j = 0
    while vector:
        if vector & 1:
            out ^= columns[j]
        vector >>= 1
        j += 1
    return out


def _mat_vec_array(columns: Sequence[int], vectors: "np.ndarray") -> "np.ndarray":
    """:func:`_mat_vec` over a ``uint64`` array of vectors at once.  The
    columns are taken eight at a time as a table of all 256 of their XOR
    combinations, so each byte of the vectors costs one gather."""
    out = np.zeros_like(vectors)
    for low in range(0, len(columns), 8):
        lane = columns[low:low + 8]
        combos = np.zeros(1 << len(lane), dtype=np.uint64)
        for i, column in enumerate(lane):
            combos[1 << i:2 << i] = combos[:1 << i] ^ np.uint64(column)
        out ^= combos[(vectors >> np.uint64(low)) & np.uint64(combos.size - 1)]
    return out


def _mat_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Matrix product ``A @ B`` (both as column masks): column ``j`` of the
    result is ``A @ (column j of B)``."""
    return [_mat_vec(a, col) for col in b]
