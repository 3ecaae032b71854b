"""Topological ordering, levelization and fanout-cone analysis.

All algorithms operate on the *combinational view* of a full-scan circuit:
primary inputs and flip-flop outputs are sources, primary outputs and
flip-flop D inputs are sinks.  Cycles through flip-flops are therefore cut.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set

from .netlist import GateType, Netlist, NetlistError


def topological_order(netlist: Netlist) -> List[str]:
    """Nets in an order where every combinational gate follows its fanins.

    ``INPUT`` and ``DFF`` nets (the combinational sources) come first.
    Kahn's algorithm; deterministic given the netlist insertion order.
    Raises :class:`NetlistError` naming a net on a cycle when combinational
    gates form a loop.
    """
    gates = netlist.gates
    source_types = (GateType.INPUT, GateType.DFF)
    indegree: Dict[str, int] = {}
    fanout: Dict[str, List[str]] = {net: [] for net in gates}
    order: List[str] = []
    for net, gate in gates.items():
        if gate.gtype in source_types:
            indegree[net] = 0
            order.append(net)
        else:
            indegree[net] = len(gate.fanins)
            for src in gate.fanins:
                fanout[src].append(net)
    # ``order`` doubles as Kahn's FIFO queue: iterating a list sees the
    # items appended during the loop.
    for net in order:
        for succ in fanout[net]:
            remaining = indegree[succ] - 1
            indegree[succ] = remaining
            if not remaining:
                order.append(succ)
    if len(order) != len(gates):
        raise NetlistError(
            f"combinational loop through net {_net_on_cycle(netlist, indegree)!r}"
        )
    return order


def _net_on_cycle(netlist: Netlist, indegree: Dict[str, int]) -> str:
    """A net on a combinational cycle, given the in-degrees Kahn's sort
    left behind.  Every unordered gate has an unordered fanin (else its
    in-degree would have reached zero), so walking unordered fanins from
    any unordered gate must repeat a net — and a net that repeats lies on
    the cycle, never on a gate merely hanging downstream of it."""
    net = next(net for net, deg in indegree.items() if deg)
    seen: Set[str] = set()
    while net not in seen:
        seen.add(net)
        net = next(src for src in netlist.gates[net].fanins if indegree[src])
    return net


def levelize(netlist: Netlist) -> Dict[str, int]:
    """Combinational depth of each net (sources at level 0)."""
    levels: Dict[str, int] = {}
    for net in topological_order(netlist):
        gate = netlist.gates[net]
        if gate.gtype.is_combinational:
            levels[net] = 1 + max(levels[src] for src in gate.fanins)
        else:
            levels[net] = 0
    return levels


def fanout_cone(netlist: Netlist, root: str) -> Set[str]:
    """All nets reachable from ``root`` through combinational gates.

    The cone stops at flip-flop D inputs and primary outputs: a ``DFF`` net
    is *not* in the cone of its own D input (the capture edge ends the
    pattern).  ``root`` itself is included.
    """
    fanout = netlist.fanout_map()
    cone: Set[str] = {root}
    frontier = deque([root])
    while frontier:
        net = frontier.popleft()
        for succ in fanout.get(net, ()):
            if succ in cone:
                continue
            if not netlist.gates[succ].gtype.is_combinational:
                continue  # DFF: the D value is captured, not propagated
            cone.add(succ)
            frontier.append(succ)
    return cone


def observing_cells(netlist: Netlist, root: str, scan_order: Sequence[str]) -> List[int]:
    """Scan-chain positions of the flip-flops whose D input lies in the
    fanout cone of ``root`` (i.e. the cells that *can* capture an error from
    a fault on ``root``).

    ``scan_order`` is the list of DFF output nets in chain order; the return
    value is sorted positions into that list.
    """
    cone = fanout_cone(netlist, root)
    positions = [
        idx
        for idx, ff_net in enumerate(scan_order)
        if netlist.gates[ff_net].fanins[0] in cone
    ]
    return positions


def cone_gate_schedule(netlist: Netlist, root: str, topo: Sequence[str]) -> List[str]:
    """Combinational gates in the fanout cone of ``root``, in topological
    order — the exact evaluation schedule for event-driven fault simulation.
    """
    cone = fanout_cone(netlist, root)
    return [
        net
        for net in topo
        if net in cone and netlist.gates[net].gtype.is_combinational
    ]


def cone_span(positions: Sequence[int]) -> int:
    """Span (max - min + 1) of a set of scan positions; 0 if empty.

    Used to quantify the clustering of failing scan cells (paper Fig. 2).
    """
    if not positions:
        return 0
    return max(positions) - min(positions) + 1
