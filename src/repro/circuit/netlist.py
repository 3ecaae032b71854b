"""Gate-level netlist model for full-scan sequential circuits.

The model follows the ISCAS-89 convention: a circuit is a set of named nets,
each driven by a primary input, a combinational gate, or a D flip-flop.
Flip-flops are the scan cells of the full-scan version of the circuit; their
``D`` input net is the value *captured* into the cell at the end of a test
pattern, and their output net is the value the cell *drives* into the
combinational logic while the pattern is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Sequence, Set, Tuple


class GateType(Enum):
    """Supported gate primitives (the ISCAS-89 set)."""

    INPUT = "INPUT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    NOT = "NOT"
    BUF = "BUF"
    XOR = "XOR"
    XNOR = "XNOR"
    DFF = "DFF"

    @property
    def is_combinational(self) -> bool:
        # Identity tests against module aliases: hashing an Enum member and
        # looking one up on its class both run Python-level code, and this
        # is asked once per gate per pass.
        return self is not _INPUT and self is not _DFF


_INPUT, _DFF, _NOT, _BUF = GateType.INPUT, GateType.DFF, GateType.NOT, GateType.BUF


class NetlistError(ValueError):
    """Raised when a netlist is structurally invalid."""


@dataclass(frozen=True)
class Gate:
    """A single driver: ``output = gtype(fanins)``.

    ``INPUT`` gates have no fanins. ``DFF`` gates have exactly one fanin,
    the D input captured into the cell.
    """

    output: str
    gtype: GateType
    fanins: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        gtype = self.gtype
        if gtype is _INPUT:
            if self.fanins:
                raise NetlistError(f"INPUT {self.output!r} must have no fanins")
        elif gtype is _NOT or gtype is _BUF or gtype is _DFF:
            if len(self.fanins) != 1:
                raise NetlistError(
                    f"{gtype.value} {self.output!r} needs exactly 1 fanin, "
                    f"got {len(self.fanins)}"
                )
        elif not isinstance(gtype, GateType):  # pragma: no cover - enum is closed
            raise NetlistError(f"unknown gate type {gtype!r}")
        elif not self.fanins:
            raise NetlistError(f"{gtype.value} {self.output!r} needs at least 1 fanin")


@dataclass
class Netlist:
    """A named, validated gate-level circuit.

    Attributes
    ----------
    name:
        Circuit name (e.g. ``"s953"``).
    inputs:
        Primary input net names, in declaration order.
    outputs:
        Primary output net names, in declaration order.
    gates:
        All drivers, including ``INPUT`` and ``DFF`` entries, keyed by their
        output net.
    """

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    gates: Dict[str, Gate] = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    def add_input(self, net: str) -> None:
        self._add(Gate(net, GateType.INPUT))
        self.inputs.append(net)

    def add_output(self, net: str) -> None:
        if net in self.outputs:
            raise NetlistError(f"duplicate output declaration {net!r}")
        self.outputs.append(net)

    def add_gate(self, output: str, gtype: GateType, fanins: Sequence[str]) -> None:
        self._add(Gate(output, gtype, tuple(fanins)))

    def add_dff(self, output: str, d_input: str) -> None:
        self._add(Gate(output, GateType.DFF, (d_input,)))

    def _add(self, gate: Gate) -> None:
        if gate.output in self.gates:
            raise NetlistError(f"net {gate.output!r} has multiple drivers")
        self.gates[gate.output] = gate

    # -- queries ----------------------------------------------------------

    @property
    def flip_flops(self) -> List[Gate]:
        """DFF gates in insertion order (this defines the default scan order)."""
        return [g for g in self.gates.values() if g.gtype is _DFF]

    @property
    def num_flip_flops(self) -> int:
        return sum(1 for g in self.gates.values() if g.gtype is _DFF)

    @property
    def num_combinational_gates(self) -> int:
        return sum(1 for g in self.gates.values() if g.gtype.is_combinational)

    def fanout_map(self) -> Dict[str, List[str]]:
        """Map each net to the output nets of the gates it feeds."""
        fanout: Dict[str, List[str]] = {net: [] for net in self.gates}
        for gate in self.gates.values():
            for src in gate.fanins:
                fanout.setdefault(src, []).append(gate.output)
        return fanout

    def nets(self) -> Set[str]:
        """All net names referenced anywhere in the circuit."""
        referenced: Set[str] = set(self.gates)
        referenced.update(self.outputs)
        for gate in self.gates.values():
            referenced.update(gate.fanins)
        return referenced

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`NetlistError` on dangling nets, combinational loops,
        or malformed I/O declarations."""
        from .levelize import topological_order  # levelize imports this module

        self.validate_connectivity()
        topological_order(self)  # the ordering pass is the loop check

    def validate_connectivity(self) -> None:
        """:meth:`validate` without the loop check: dangling nets and
        malformed I/O declarations only.  For callers that order the netlist
        next — :func:`~repro.circuit.levelize.topological_order` rejects
        loops as a side effect."""
        for net in self.outputs:
            if net not in self.gates:
                raise NetlistError(f"output {net!r} has no driver")
        gates = self.gates
        for gate in gates.values():
            for src in gate.fanins:
                if src not in gates:
                    raise NetlistError(
                        f"net {src!r} (fanin of {gate.output!r}) has no driver"
                    )
        for net in self.inputs:
            gate = gates.get(net)
            if gate is None or gate.gtype is not GateType.INPUT:
                raise NetlistError(f"declared input {net!r} is not an INPUT gate")

    # -- misc ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Summary counts, keyed like the published ISCAS-89 tables."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "flip_flops": self.num_flip_flops,
            "gates": self.num_combinational_gates,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"Netlist({self.name!r}, PI={s['inputs']}, PO={s['outputs']}, "
            f"DFF={s['flip_flops']}, gates={s['gates']})"
        )


def merge_disjoint(name: str, parts: Iterable[Netlist], sep: str = "/") -> Netlist:
    """Combine independent netlists into one, prefixing nets with the part name.

    Used to build SOC-level circuits out of core-level circuits; the parts
    stay electrically disjoint (cores in a TestRail SOC are only connected
    through the scan path, which is modelled separately).
    """
    merged = Netlist(name)
    for part in parts:
        prefix = part.name + sep

        def qual(net: str, _prefix: str = prefix) -> str:
            return _prefix + net

        for net in part.inputs:
            merged.add_input(qual(net))
        for net in part.outputs:
            merged.add_output(qual(net))
        for gate in part.gates.values():
            if gate.gtype is GateType.INPUT:
                continue
            merged._add(
                Gate(qual(gate.output), gate.gtype, tuple(qual(f) for f in gate.fanins))
            )
    return merged
