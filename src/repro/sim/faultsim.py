"""Event-driven, cone-restricted stuck-at fault simulation.

For each fault, only the gates inside the static fanout cone of the fault
site are re-evaluated (in topological order), against the cached fault-free
values of everything outside the cone.  The output is the **error matrix**:
for every scan cell, a packed word vector with bit ``p`` set iff the cell
captures a wrong value under pattern ``p`` — exactly the information the
paper's diagnosis schemes consume.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

import numpy as np

from ..telemetry import METRICS, span
from .bitops import any_bit, num_words, pattern_mask, popcount
from .faults import Fault
from .logicsim import CompiledCircuit, SimResult, _combine


@dataclass
class FaultResponse:
    """Per-pattern error behaviour of one fault.

    ``cell_errors`` maps scan-cell position -> packed word vector of the
    patterns where that cell captured an error.  Cells absent from the map
    captured no errors.
    """

    fault: Fault
    cell_errors: Dict[int, np.ndarray]
    num_patterns: int

    @property
    def failing_cells(self) -> List[int]:
        """Scan-cell positions that captured at least one error."""
        return sorted(self.cell_errors)

    @property
    def detected(self) -> bool:
        return bool(self.cell_errors)

    def error_count(self) -> int:
        """Total number of (cell, pattern) error events."""
        return sum(popcount(vec) for vec in self.cell_errors.values())

    def errors_at(self, cell: int) -> np.ndarray:
        """Error word vector for one cell (zeros if the cell never fails)."""
        vec = self.cell_errors.get(cell)
        if vec is None:
            return np.zeros(num_words(self.num_patterns), dtype=np.uint64)
        return vec


class FaultSimulator:
    """Simulates single stuck-at faults against a fixed pattern set."""

    def __init__(self, compiled: CompiledCircuit, good: SimResult):
        self.compiled = compiled
        self.good = good
        self.num_patterns = good.num_patterns
        self._mask = pattern_mask(good.num_patterns)
        self._fanout = self._build_fanout_index()
        # Scan-cell positions observed by each D-input net.
        self._capture_cells: Dict[int, List[int]] = {}
        for cell_pos, row in enumerate(compiled.ff_capture_rows):
            self._capture_cells.setdefault(int(row), []).append(cell_pos)

    # -- construction helpers ------------------------------------------------

    def _build_fanout_index(self) -> Dict[int, List[int]]:
        fanout: Dict[int, List[int]] = {}
        for out_idx, _op, _invert, fanins in self.compiled._ops:
            for src in fanins:
                fanout.setdefault(src, []).append(out_idx)
        return fanout

    # -- simulation -----------------------------------------------------------

    def simulate_fault(self, fault: Fault) -> FaultResponse:
        """Compute the error matrix of one fault over all patterns."""
        compiled = self.compiled
        good_values = self.good.values
        mask = self._mask
        words = good_values.shape[1]

        site_idx = compiled.net_index[fault.site]
        faulty: Dict[int, np.ndarray] = {}

        stuck_vec = mask.copy() if fault.stuck_at == 1 else np.zeros(words, np.uint64)
        if fault.pin is None:
            # Stem fault: the net itself takes the stuck value everywhere.
            net_idx = compiled.net_index[fault.net]
            if not any_bit(good_values[net_idx] ^ stuck_vec):
                return self._response(fault, {})
            faulty[net_idx] = stuck_vec
            frontier = [net_idx]
        else:
            # Branch fault: only the one gate sees the stuck value.
            gate_out, fanin_pos = fault.pin
            gate_idx = compiled.net_index[gate_out]
            new_val = compiled.evaluate_net_with_forced_fanin(
                good_values, gate_idx, fanin_pos, stuck_vec, mask
            )
            if not any_bit(new_val ^ good_values[gate_idx]):
                return self._response(fault, {})
            faulty[gate_idx] = new_val
            frontier = [gate_idx]

        # Event-driven propagation in topological order.  A simple sorted
        # frontier (by compiled net index, which is topological) guarantees
        # each gate is evaluated after all of its changed fanins.
        pending: Set[int] = set()
        for start in frontier:
            for succ in self._fanout.get(start, ()):  # noqa: B023
                pending.add(succ)
        schedule = sorted(pending)
        pos = 0
        scheduled = set(schedule)
        while pos < len(schedule):
            net_idx = schedule[pos]
            pos += 1
            scheduled.discard(net_idx)
            new_val = self._eval_with_overrides(net_idx, faulty)
            old_val = faulty.get(net_idx, good_values[net_idx])
            if not any_bit(new_val ^ old_val):
                continue
            if any_bit(new_val ^ good_values[net_idx]):
                faulty[net_idx] = new_val
            else:
                faulty.pop(net_idx, None)
            for succ in self._fanout.get(net_idx, ()):
                if succ not in scheduled:
                    # Insert keeping the schedule sorted: succ > net_idx is
                    # guaranteed by topological indexing, so appending then
                    # re-sorting the tail keeps correctness; binary insert.
                    _insort(schedule, succ, pos)
                    scheduled.add(succ)

        # Collect captured errors at scan cells.
        cell_errors: Dict[int, np.ndarray] = {}
        for net_idx, val in faulty.items():
            cells = self._capture_cells.get(net_idx)
            if not cells:
                continue
            diff = (val ^ good_values[net_idx]) & mask
            if not any_bit(diff):
                continue
            for cell_pos in cells:
                cell_errors[cell_pos] = diff.copy()
        return self._response(fault, cell_errors)

    def _response(self, fault: Fault, cell_errors: Dict[int, np.ndarray]) -> FaultResponse:
        METRICS.incr("faultsim.faults")
        if cell_errors:
            METRICS.incr("faultsim.detected")
            METRICS.incr("faultsim.error_cells", len(cell_errors))
        return FaultResponse(fault, cell_errors, self.num_patterns)

    def _eval_with_overrides(
        self, net_idx: int, overrides: Dict[int, np.ndarray]
    ) -> np.ndarray:
        _out, op, invert, fanins = self.compiled.gate_op(net_idx)
        if not any(src in overrides for src in fanins):
            return self.good.values[net_idx]
        operands = [overrides.get(src, self.good.values[src]) for src in fanins]
        return _combine(operands, op, invert, self._mask)

    def simulate_faults(self, faults: Sequence[Fault]) -> List[FaultResponse]:
        """Error matrices for a fault population, in input order.

        The population runs through the fault-batched cone kernel
        (:mod:`repro.sim.faultsim_batch`), bit-identical to looping
        :meth:`simulate_fault`.
        """
        from .faultsim_batch import simulate_faults_batched

        faults = list(faults)
        with span("fault.sim", faults=len(faults)) as sp:
            responses = simulate_faults_batched(self, faults)
            sp.add("detected", sum(1 for r in responses if r.detected))
        return responses


def merge_responses(responses: Sequence[FaultResponse]) -> FaultResponse:
    """Superpose several faults' error matrices (multiple simultaneous
    faults; paper Section 5: "the effect of multiple faults can be viewed
    similarly with that of single fault").

    Error bits XOR: two faults flipping the same captured bit cancel,
    exactly as in silicon.
    """
    if not responses:
        raise ValueError("at least one response required")
    num_patterns = responses[0].num_patterns
    if any(r.num_patterns != num_patterns for r in responses):
        raise ValueError("responses cover different pattern counts")
    merged: Dict[int, np.ndarray] = {}
    for response in responses:
        for cell, vec in response.cell_errors.items():
            if cell in merged:
                merged[cell] = merged[cell] ^ vec
            else:
                merged[cell] = vec.copy()
    merged = {cell: vec for cell, vec in merged.items() if any_bit(vec)}
    return FaultResponse(responses[0].fault, merged, num_patterns)


def _insort(schedule: List[int], value: int, lo: int) -> None:
    """Insert ``value`` into the sorted tail ``schedule[lo:]``."""
    idx = bisect.bisect_left(schedule, value, lo=lo)
    schedule.insert(idx, value)
