"""PODEM deterministic test generation for single stuck-at faults.

Pseudo-random BIST leaves part of the fault universe undetected
(random-pattern-resistant faults); production flows top the BIST session up
with stored deterministic patterns.  This module implements PODEM (Goel,
1981) on the full-scan combinational view so experiments can (a) classify
the faults the paper's 128-pattern sessions miss and (b) study diagnosis
with a deterministic top-up pattern set.

Implementation: the classic two-circuit five-valued calculus.  Every net
carries a pair ``(good, faulty)`` of three-valued values (0, 1, X); the
pairs (1,0) and (0,1) are D and D̄.  Decisions are made only at primary
inputs and scan-cell pseudo-inputs; each decision triggers a full forward
implication pass (circuits at ATPG granularity are small enough that the
simple full pass beats bookkeeping).  Objectives follow the textbook
scheme: activate the fault, then advance the D-frontier; backtrace drives
each objective to an unassigned input; a backtrack limit bounds the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.levelize import topological_order
from ..circuit.netlist import GateType, Netlist
from ..sim.faults import Fault

# Three-valued scalars.
ZERO, ONE, X = 0, 1, 2

#: (good, faulty) pairs for the five composite values.
V0 = (ZERO, ZERO)
V1 = (ONE, ONE)
VX = (X, X)
VD = (ONE, ZERO)
VDBAR = (ZERO, ONE)


def _and3(a: int, b: int) -> int:
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE and b == ONE:
        return ONE
    return X


def _or3(a: int, b: int) -> int:
    if a == ONE or b == ONE:
        return ONE
    if a == ZERO and b == ZERO:
        return ZERO
    return X


def _xor3(a: int, b: int) -> int:
    if a == X or b == X:
        return X
    return a ^ b


def _not3(a: int) -> int:
    if a == X:
        return X
    return 1 - a


_CONTROLLING = {
    GateType.AND: ZERO,
    GateType.NAND: ZERO,
    GateType.OR: ONE,
    GateType.NOR: ONE,
}

_INVERTING = {GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR}


def _eval3(gtype: GateType, inputs: Sequence[int]) -> int:
    if gtype in (GateType.AND, GateType.NAND):
        value = ONE
        for v in inputs:
            value = _and3(value, v)
    elif gtype in (GateType.OR, GateType.NOR):
        value = ZERO
        for v in inputs:
            value = _or3(value, v)
    elif gtype in (GateType.XOR, GateType.XNOR):
        value = ZERO
        for v in inputs:
            value = _xor3(value, v)
    else:  # BUF / NOT
        value = inputs[0]
    if gtype in _INVERTING:
        value = _not3(value)
    return value


@dataclass
class TestCube:
    """A generated test: assignments to primary inputs and scan cells.

    Unassigned positions are don't-cares and may be filled randomly (the
    usual practice before pattern application)."""

    pi_values: Dict[str, int]
    ff_values: Dict[str, int]
    fault: Fault

    def assignment_count(self) -> int:
        return len(self.pi_values) + len(self.ff_values)


@dataclass
class AtpgStats:
    detected: int = 0
    untestable: int = 0
    aborted: int = 0


class PodemEngine:
    """PODEM over one netlist (reusable across faults)."""

    def __init__(self, netlist: Netlist, backtrack_limit: int = 200):
        # The topological sort below is the loop check.
        netlist.validate_connectivity()
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self.topo = topological_order(netlist)
        self.inputs: List[str] = list(netlist.inputs) + [
            g.output for g in netlist.flip_flops
        ]
        self._input_set: Set[str] = set(self.inputs)
        # Observation points: POs and scan-cell D inputs.
        self.observe: List[str] = list(netlist.outputs) + [
            g.fanins[0] for g in netlist.flip_flops
        ]
        self._fanout = netlist.fanout_map()

    # -- implication -------------------------------------------------------

    def _simulate(
        self, assignment: Dict[str, int], fault: Fault
    ) -> Dict[str, Tuple[int, int]]:
        """Full forward five-valued implication under the fault."""
        values: Dict[str, Tuple[int, int]] = {}
        for net in self.topo:
            gate = self.netlist.gates[net]
            if not gate.gtype.is_combinational:
                scalar = assignment.get(net, X)
                good = faulty = scalar
            else:
                good_ins = []
                faulty_ins = []
                for pos, src in enumerate(gate.fanins):
                    g, f = values[src]
                    if fault.pin is not None and fault.pin == (net, pos):
                        f = fault.stuck_at
                    good_ins.append(g)
                    faulty_ins.append(f)
                good = _eval3(gate.gtype, good_ins)
                faulty = _eval3(gate.gtype, faulty_ins)
            if fault.pin is None and fault.net == net:
                faulty = fault.stuck_at
            values[net] = (good, faulty)
        return values

    # -- objectives ----------------------------------------------------------

    def _fault_site_value(self, values: Dict[str, Tuple[int, int]], fault: Fault):
        return values[fault.net]

    def _activation_objective(
        self, values: Dict[str, Tuple[int, int]], fault: Fault
    ) -> Optional[Tuple[str, int]]:
        """Objective to set the faulty net to the opposite of the stuck
        value (so the fault produces D / D̄)."""
        good, _faulty = values[fault.net]
        if good == X:
            return (fault.net, 1 - fault.stuck_at)
        return None

    def _d_frontier(
        self, values: Dict[str, Tuple[int, int]], fault: Fault
    ) -> List[str]:
        frontier = []
        for net, gate in self.netlist.gates.items():
            if not gate.gtype.is_combinational:
                continue
            good, faulty = values[net]
            if good != X and faulty != X:
                continue  # already resolved
            has_d_input = False
            for pos, src in enumerate(gate.fanins):
                g, f = values[src]
                if fault.pin is not None and fault.pin == (net, pos):
                    f = fault.stuck_at
                if g != X and f != X and g != f:
                    has_d_input = True
                    break
            if has_d_input:
                frontier.append(net)
        return frontier

    def _propagation_objective(
        self, values: Dict[str, Tuple[int, int]], fault: Fault
    ) -> Optional[Tuple[str, int]]:
        frontier = self._d_frontier(values, fault)
        for net in frontier:
            gate = self.netlist.gates[net]
            control = _CONTROLLING.get(gate.gtype)
            for src in gate.fanins:
                g, f = values[src]
                if g == X or f == X:
                    if control is not None:
                        return (src, 1 - control)
                    return (src, ZERO)  # XOR-ish: any binding helps
        return None

    # -- backtrace ----------------------------------------------------------

    def _backtrace(
        self,
        objective: Tuple[str, int],
        values: Dict[str, Tuple[int, int]],
    ) -> Optional[Tuple[str, int]]:
        """Drive an objective back to an unassigned input through X nets."""
        net, target = objective
        guard = 0
        while net not in self._input_set:
            guard += 1
            if guard > len(self.topo):
                return None
            gate = self.netlist.gates[net]
            if gate.gtype in _INVERTING:
                target = 1 - target if target != X else X
            # pick an X input to continue through
            next_net = None
            for src in gate.fanins:
                g, f = values[src]
                if g == X or f == X:
                    next_net = src
                    break
            if next_net is None:
                return None
            net = next_net
        g, f = values[net]
        if g != X:
            return None  # input already assigned
        return (net, target)

    # -- detection check -------------------------------------------------------

    def _detected(self, values: Dict[str, Tuple[int, int]]) -> bool:
        for net in self.observe:
            good, faulty = values[net]
            if good != X and faulty != X and good != faulty:
                return True
        return False

    def _possible(self, values: Dict[str, Tuple[int, int]], fault: Fault) -> bool:
        """False when no X-path can carry the fault effect to an
        observation point (prune)."""
        good, faulty = values[fault.net]
        if good != X and good == fault.stuck_at:
            return False  # fault cannot be activated under this assignment
        if good != X and faulty != X and good != faulty:
            # Effect exists at the site: need a frontier or direct observation.
            return bool(self._d_frontier(values, fault)) or self._detected(values)
        return True

    # -- main loop ----------------------------------------------------------------

    def generate(self, fault: Fault) -> Optional[TestCube]:
        """A test cube detecting ``fault``, or ``None`` (untestable within
        the backtrack limit)."""
        assignment: Dict[str, int] = {}
        decisions: List[Tuple[str, int, bool]] = []  # (input, value, tried_both)
        backtracks = 0
        while True:
            values = self._simulate(assignment, fault)
            if self._detected(values):
                return self._cube(assignment, fault)
            feasible = self._possible(values, fault)
            decision = None
            if feasible:
                objective = self._activation_objective(values, fault)
                if objective is None:
                    objective = self._propagation_objective(values, fault)
                if objective is not None:
                    decision = self._backtrace(objective, values)
            if decision is None or not feasible:
                # Backtrack.
                while decisions and decisions[-1][2]:
                    net, _value, _tried = decisions.pop()
                    del assignment[net]
                if not decisions:
                    return None
                net, value, _tried = decisions.pop()
                assignment[net] = 1 - value
                decisions.append((net, 1 - value, True))
                backtracks += 1
                if backtracks > self.backtrack_limit:
                    return None
                continue
            net, value = decision
            assignment[net] = value
            decisions.append((net, value, False))

    def _cube(self, assignment: Dict[str, int], fault: Fault) -> TestCube:
        pi_values = {
            net: v for net, v in assignment.items() if net in set(self.netlist.inputs)
        }
        ff_names = {g.output for g in self.netlist.flip_flops}
        ff_values = {net: v for net, v in assignment.items() if net in ff_names}
        return TestCube(pi_values=pi_values, ff_values=ff_values, fault=fault)


def atpg_campaign(
    netlist: Netlist,
    faults: Sequence[Fault],
    backtrack_limit: int = 200,
) -> Tuple[List[TestCube], AtpgStats]:
    """Generate tests for a fault list; returns the cubes and the
    detected / untestable-or-aborted tallies.

    PODEM with a backtrack limit cannot distinguish truly untestable
    faults from aborts, so both are reported: a ``None`` result with fewer
    than ``backtrack_limit`` backtracks exhausted the decision space
    (proven untestable), otherwise it is an abort.
    """
    engine = PodemEngine(netlist, backtrack_limit=backtrack_limit)
    cubes: List[TestCube] = []
    stats = AtpgStats()
    for fault in faults:
        cube = engine.generate(fault)
        if cube is not None:
            cubes.append(cube)
            stats.detected += 1
        else:
            stats.untestable += 1  # includes aborts; see docstring
    return cubes, stats


def cube_to_pattern(
    cube: TestCube,
    netlist: Netlist,
    rng=None,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Fill a cube's don't-cares (randomly if ``rng`` given, else with 0)
    yielding a full (pi, ff) assignment ready for logic simulation."""
    import numpy as np

    rng = rng or np.random.default_rng(0)
    pi = {}
    for net in netlist.inputs:
        pi[net] = cube.pi_values.get(net, int(rng.integers(0, 2)))
    ff = {}
    for gate in netlist.flip_flops:
        ff[gate.output] = cube.ff_values.get(gate.output, int(rng.integers(0, 2)))
    return pi, ff
