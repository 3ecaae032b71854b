"""Compiled, levelized, bit-parallel logic simulation.

A :class:`CompiledCircuit` freezes a netlist into flat integer arrays so the
inner simulation loop touches no Python objects besides ``numpy`` word
vectors.  One pass evaluates all (up to 64·words) patterns at once for the
*combinational view* of the full-scan circuit: primary inputs and flip-flop
(scan cell) outputs are free variables, flip-flop D inputs are the captured
responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..circuit.levelize import topological_order
from ..circuit.netlist import GateType, Netlist
from ..telemetry import METRICS
from .bitops import num_words, pattern_mask

# Opcodes for the compiled evaluation loop.
_OP_AND, _OP_OR, _OP_XOR, _OP_BUF = 0, 1, 2, 3

_BASE_OP = {
    GateType.AND: (_OP_AND, False),
    GateType.NAND: (_OP_AND, True),
    GateType.OR: (_OP_OR, False),
    GateType.NOR: (_OP_OR, True),
    GateType.XOR: (_OP_XOR, False),
    GateType.XNOR: (_OP_XOR, True),
    GateType.BUF: (_OP_BUF, False),
    GateType.NOT: (_OP_BUF, True),
}


@dataclass
class SimResult:
    """Values of every net under every pattern.

    ``values`` has shape ``(num_nets, words)``; rows are indexed by
    :attr:`CompiledCircuit.net_index`.
    """

    circuit: "CompiledCircuit"
    values: np.ndarray
    num_patterns: int

    def net(self, name: str) -> np.ndarray:
        return self.values[self.circuit.net_index[name]]

    @property
    def captured(self) -> np.ndarray:
        """Responses captured into the scan cells: shape ``(n_ff, words)``,
        row ``i`` is the D-input value of scan cell ``i``."""
        return self.values[self.circuit.ff_capture_rows]

    @property
    def po_values(self) -> np.ndarray:
        """Primary output values, shape ``(n_po, words)``."""
        return self.values[self.circuit.po_rows]


class CompiledCircuit:
    """A netlist compiled to flat arrays for fast repeated simulation."""

    def __init__(self, netlist: Netlist):
        # The topological sort is the loop check.
        netlist.validate_connectivity()
        self.netlist = netlist
        topo = topological_order(netlist)
        self.net_order: List[str] = topo
        self.net_index: Dict[str, int] = {net: i for i, net in enumerate(topo)}

        # Scan order: DFF insertion order in the netlist (the generator and
        # the .bench files list flip-flops in their structural order).
        self.scan_cells: List[str] = [g.output for g in netlist.flip_flops]
        self.pi_rows = np.array(
            [self.net_index[n] for n in netlist.inputs], dtype=np.int64
        )
        self.ff_rows = np.array(
            [self.net_index[n] for n in self.scan_cells], dtype=np.int64
        )
        self.ff_capture_rows = np.array(
            [self.net_index[netlist.gates[n].fanins[0]] for n in self.scan_cells],
            dtype=np.int64,
        )
        self.po_rows = np.array(
            [self.net_index[n] for n in netlist.outputs], dtype=np.int64
        )

        # Compile combinational gates in topological order, levelizing as
        # we go: every fanin's level is known before its gate is reached.
        ops: List[Tuple[int, int, bool, Tuple[int, ...]]] = []
        net_index = self.net_index
        gates = netlist.gates
        levels = [0] * len(topo)
        for row, net in enumerate(topo):
            gate = gates[net]
            if not gate.gtype.is_combinational:
                continue
            op, invert = _BASE_OP[gate.gtype]
            fanin_idx = tuple([net_index[f] for f in gate.fanins])
            levels[row] = 1 + max([levels[src] for src in fanin_idx])
            ops.append((row, op, invert, fanin_idx))
        self._ops = ops
        #: ``(num_nets,)`` int32 — combinational depth per value-plane row
        #: (sources at 0).
        self.level_of = np.array(levels, dtype=np.int32)
        self._ops_by_net: Dict[int, Tuple[int, int, bool, Tuple[int, ...]]] = {
            entry[0]: entry for entry in ops
        }
        # Lazily built level-group schedule (repro.sim.soa); None until
        # the first simulation asks for it.
        self._soa_schedule = None

    # -- properties --------------------------------------------------------

    @property
    def num_nets(self) -> int:
        return len(self.net_order)

    @property
    def num_scan_cells(self) -> int:
        return len(self.scan_cells)

    @property
    def num_inputs(self) -> int:
        return len(self.pi_rows)

    # -- simulation ---------------------------------------------------------

    def soa_schedule(self):
        """The circuit's level-group schedule (built once, then cached on
        the instance; shared builds go through the workload cache)."""
        if self._soa_schedule is None:
            from .soa import schedule_for

            self._soa_schedule = schedule_for(self)
        return self._soa_schedule

    def simulate(
        self,
        pi_values: np.ndarray,
        ff_values: np.ndarray,
        num_patterns: int,
    ) -> SimResult:
        """Evaluate all patterns through the level-group schedule
        (:mod:`repro.sim.soa`).

        ``pi_values`` has shape ``(n_pi, words)`` and ``ff_values``
        ``(n_ff, words)`` — the values scanned into the cells before the
        capture cycle.
        """
        words = num_words(num_patterns)
        if pi_values.shape != (len(self.pi_rows), words):
            raise ValueError(
                f"pi_values shape {pi_values.shape} != ({len(self.pi_rows)}, {words})"
            )
        if ff_values.shape != (len(self.ff_rows), words):
            raise ValueError(
                f"ff_values shape {ff_values.shape} != ({len(self.ff_rows)}, {words})"
            )
        mask = pattern_mask(num_patterns)
        values = np.zeros((self.num_nets, words), dtype=np.uint64)
        values[self.pi_rows] = pi_values & mask
        values[self.ff_rows] = ff_values & mask
        # A netlist with no combinational gates has nothing to schedule.
        if self._ops:
            self.soa_schedule().run(values, mask)
        METRICS.incr("logicsim.sims")
        return SimResult(self, values, num_patterns)

    def gate_op(self, net_idx: int) -> Tuple[int, int, bool, Tuple[int, ...]]:
        """Compiled ``(out, opcode, invert, fanins)`` entry for one net —
        the per-gate record hot loops should use instead of re-resolving
        the gate through the netlist dict."""
        return self._ops_by_net[net_idx]

    def evaluate_net_with_forced_fanin(
        self,
        values: np.ndarray,
        net_idx: int,
        forced_fanin: int,
        forced_value: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        """Evaluate one gate with one fanin overridden (input-pin faults)."""
        _out, op, invert, fanins = self._ops_by_net[net_idx]
        operands = [
            forced_value if pos == forced_fanin else values[src]
            for pos, src in enumerate(fanins)
        ]
        return _combine(operands, op, invert, mask)


def _combine(
    operands: Sequence[np.ndarray], op: int, invert: bool, mask: np.ndarray
) -> np.ndarray:
    first = operands[0]
    if len(operands) == 1:
        # BUF/NOT (and degenerate single-input gates): ``~x & mask`` /
        # ``x & mask`` directly — no copy-then-mutate round trip.
        if invert:
            acc = np.invert(first)
            acc &= mask
            return acc
        return first & mask
    # Multi-operand: the first binary op allocates the fresh result, the
    # rest accumulate in place.
    if op == _OP_AND:
        acc = first & operands[1]
        for other in operands[2:]:
            acc &= other
    elif op == _OP_OR:
        acc = first | operands[1]
        for other in operands[2:]:
            acc |= other
    else:  # _OP_XOR (BUF is always single-operand)
        acc = first ^ operands[1]
        for other in operands[2:]:
            acc ^= other
    if invert:
        np.invert(acc, out=acc)
    acc &= mask
    return acc
