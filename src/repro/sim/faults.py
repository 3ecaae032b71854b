"""Single stuck-at fault universe and structural equivalence collapsing.

A fault is either a *net* (gate output / stem) fault or an *input-pin*
(branch) fault of a specific gate.  Collapsing applies the textbook
gate-local equivalence rules:

* ``BUF``/``NOT``: every input fault is equivalent to an output fault.
* ``AND``/``NAND``: input stuck-at-0 is equivalent to output stuck-at-0/1.
* ``OR``/``NOR``: input stuck-at-1 is equivalent to output stuck-at-1/0.
* A net with exactly one fanout pin makes the pin fault equivalent to the
  net fault.

``XOR``/``XNOR`` inputs do not collapse.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import GateType, Netlist


@dataclass(frozen=True, order=True)
class Fault:
    """A single stuck-at fault.

    ``net`` is the faulty signal.  For a net (stem/output) fault ``pin`` is
    ``None``; for an input-pin fault, ``pin = (gate_output, fanin_position)``
    identifies the branch where the fault sits.
    """

    net: str
    stuck_at: int
    pin: Optional[Tuple[str, int]] = None

    def __post_init__(self) -> None:
        if self.stuck_at not in (0, 1):
            raise ValueError("stuck_at must be 0 or 1")

    @property
    def site(self) -> str:
        """The gate whose output starts the fault's propagation cone."""
        return self.pin[0] if self.pin is not None else self.net

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = self.net if self.pin is None else f"{self.net}->{self.pin[0]}[{self.pin[1]}]"
        return f"{where}/sa{self.stuck_at}"


def full_fault_list(netlist: Netlist) -> List[Fault]:
    """All net faults plus all input-pin faults (the uncollapsed universe)."""
    faults: List[Fault] = []
    for net, gate in netlist.gates.items():
        if gate.gtype is GateType.DFF:
            continue  # scan cells themselves assumed fault-free (chain tested separately)
        faults.append(Fault(net, 0))
        faults.append(Fault(net, 1))
    for net, gate in netlist.gates.items():
        if not gate.gtype.is_combinational:
            continue
        for pos, src in enumerate(gate.fanins):
            faults.append(Fault(src, 0, pin=(net, pos)))
            faults.append(Fault(src, 1, pin=(net, pos)))
    return faults


class CollapsedFaults(SequenceABC):
    """The equivalence-collapsed fault universe as a lazy sequence.

    ``len`` is O(1) and ``[i]`` builds the one :class:`Fault` asked for,
    so sampling a few thousand faults out of a 100k-fault universe never
    materialises the rest.  One representative is kept per equivalence
    class (the module's rules), preferring net faults over pin faults
    (net faults simulate faster).  Order: both net faults (stuck-at 0,
    then 1) of every non-DFF net in netlist order, then the kept input-pin
    faults of every combinational gate in netlist order, by pin, stuck-at
    0 first.  A pin on a multi-fanout net keeps both faults on an
    ``XOR``/``XNOR``, the non-controlling one on an ``AND``/``OR`` family
    gate and none on a ``BUF``/``NOT``; the pins are stored as a
    cumulative index of those per-pin kept counts.
    """

    def __init__(self, netlist: Netlist):
        dff = GateType.DFF
        self._nets = [net for net, gate in netlist.gates.items()
                      if gate.gtype is not dff]
        gates = [gate for gate in netlist.gates.values() if gate.gtype.is_combinational]
        pins = [src for gate in gates for src in gate.fanins]
        fanout = Counter(pins)
        arity = np.fromiter((len(gate.fanins) for gate in gates), np.int64, len(gates))
        # Per gate: faults a multi-fanout pin keeps, and its first stuck-at.
        rule = np.array([_PIN_RULE[gate.gtype] for gate in gates],
                        dtype=np.int64).reshape(-1, 2)
        branch = np.fromiter((fanout[src] > 1 for src in pins), bool, len(pins))
        kept = np.repeat(rule[:, 0], arity) * branch
        pin = np.flatnonzero(kept)
        gate_start = np.concatenate(([0], np.cumsum(arity)))
        # Per kept pin: its fault offset within the pin section (one extra
        # entry: the section's length), first stuck-at value, source net
        # (index into the flat pin list), gate and fanin position.
        self._offset = np.concatenate(([0], np.cumsum(kept[pin])))
        self._first_sa = np.repeat(rule[:, 1], arity)[pin]
        self._pin = pin
        self._pin_gate = np.searchsorted(gate_start, pin, side="right") - 1
        self._pin_pos = pin - gate_start[self._pin_gate]
        self._pins = pins
        self._gates = [gate.output for gate in gates]
        self._len = 2 * len(self._nets) + int(self._offset[-1])

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("fault index out of range")
        net_faults = 2 * len(self._nets)
        if i < net_faults:
            return Fault(self._nets[i >> 1], i & 1)
        k = i - net_faults
        j = int(np.searchsorted(self._offset, k, side="right")) - 1
        return Fault(
            self._pins[self._pin[j]],
            int(self._first_sa[j]) + k - int(self._offset[j]),
            pin=(self._gates[self._pin_gate[j]], int(self._pin_pos[j])),
        )

    def __iter__(self) -> Iterator[Fault]:
        for net in self._nets:
            yield Fault(net, 0)
            yield Fault(net, 1)
        for pin, gate, pos, sa, kept in zip(
            self._pin.tolist(), self._pin_gate.tolist(), self._pin_pos.tolist(),
            self._first_sa.tolist(), np.diff(self._offset).tolist(),
        ):
            src, where = self._pins[pin], (self._gates[gate], pos)
            yield Fault(src, sa, pin=where)
            if kept == 2:
                yield Fault(src, sa + 1, pin=where)


#: Per combinational gate type: (faults a multi-fanout input
#: pin keeps, its first stuck-at value) — see :class:`CollapsedFaults`.
_PIN_RULE = {
    GateType.AND: (1, 1), GateType.NAND: (1, 1),
    GateType.OR: (1, 0), GateType.NOR: (1, 0),
    GateType.XOR: (2, 0), GateType.XNOR: (2, 0),
    GateType.BUF: (0, 0), GateType.NOT: (0, 0),
}


def collapse_faults(netlist: Netlist) -> List[Fault]:
    """Equivalence-collapsed fault list: :class:`CollapsedFaults`, built."""
    return list(CollapsedFaults(netlist))


def sample_faults(
    faults: Sequence[Fault], count: int, rng: np.random.Generator
) -> List[Fault]:
    """Uniform sample without replacement (the paper injects 500 faults per
    circuit; smaller runs sample fewer)."""
    if count >= len(faults):
        return list(faults)
    idx = rng.choice(len(faults), size=count, replace=False)
    return [faults[i] for i in sorted(idx)]
