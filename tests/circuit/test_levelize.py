"""Unit tests for topological ordering, levelization and cone analysis."""

import pytest

from repro.circuit.bench import parse_bench
from repro.circuit.levelize import (
    cone_gate_schedule,
    cone_span,
    fanout_cone,
    levelize,
    observing_cells,
    topological_order,
)
from repro.circuit.netlist import GateType, Netlist, NetlistError


class TestTopologicalOrder:
    def test_every_gate_follows_its_fanins(self, s27_netlist):
        order = topological_order(s27_netlist)
        index = {net: i for i, net in enumerate(order)}
        for net, gate in s27_netlist.gates.items():
            if gate.gtype.is_combinational:
                assert all(index[f] < index[net] for f in gate.fanins)

    def test_sources_first(self, s27_netlist):
        order = topological_order(s27_netlist)
        num_sources = len(s27_netlist.inputs) + s27_netlist.num_flip_flops
        for net in order[:num_sources]:
            assert not s27_netlist.gates[net].gtype.is_combinational

    def test_generated_circuit(self, small_netlist):
        order = topological_order(small_netlist)
        assert len(order) == len(small_netlist.gates)
        index = {net: i for i, net in enumerate(order)}
        for net, gate in small_netlist.gates.items():
            if gate.gtype.is_combinational:
                assert all(index[f] < index[net] for f in gate.fanins)

    def test_loop_raises(self):
        net = Netlist("loop")
        net.add_input("A")
        net.add_gate("X", GateType.AND, ["A", "Y"])
        net.add_gate("Y", GateType.OR, ["X"])
        net.add_output("Y")
        with pytest.raises(NetlistError, match="loop"):
            topological_order(net)


class TestLevelize:
    def test_sources_level_zero(self, s27_netlist):
        levels = levelize(s27_netlist)
        for net in s27_netlist.inputs:
            assert levels[net] == 0
        for ff in s27_netlist.flip_flops:
            assert levels[ff.output] == 0

    def test_level_is_one_plus_max_fanin(self, s27_netlist):
        levels = levelize(s27_netlist)
        for net, gate in s27_netlist.gates.items():
            if gate.gtype.is_combinational:
                assert levels[net] == 1 + max(levels[f] for f in gate.fanins)

    def test_generated_depth_bounded(self, small_netlist, small_profile):
        levels = levelize(small_netlist)
        assert max(levels.values()) <= small_profile.depth + 1


class TestFanoutCone:
    CONE_BENCH = """
    INPUT(A)
    INPUT(B)
    OUTPUT(N3)
    F0 = DFF(N2)
    F1 = DFF(N3)
    F2 = DFF(B)
    N1 = AND(A, B)
    N2 = OR(N1, F0)
    N3 = NOT(N1)
    """

    def cone_net(self):
        return parse_bench(self.CONE_BENCH, name="cone")

    def test_cone_contents(self):
        net = self.cone_net()
        assert fanout_cone(net, "N1") == {"N1", "N2", "N3"}
        assert fanout_cone(net, "A") == {"A", "N1", "N2", "N3"}

    def test_cone_stops_at_dff(self):
        net = self.cone_net()
        # N2 feeds only F0's D input: the cone ends there.
        assert fanout_cone(net, "N2") == {"N2"}

    def test_observing_cells(self):
        net = self.cone_net()
        scan = [g.output for g in net.flip_flops]  # F0, F1, F2
        assert observing_cells(net, "N1", scan) == [0, 1]
        assert observing_cells(net, "B", scan) == [0, 1, 2]
        assert observing_cells(net, "N3", scan) == [1]

    def test_cone_gate_schedule_is_topological(self, small_netlist):
        topo = topological_order(small_netlist)
        some_gate = next(
            n for n in topo if small_netlist.gates[n].gtype.is_combinational
        )
        schedule = cone_gate_schedule(small_netlist, some_gate, topo)
        index = {net: i for i, net in enumerate(topo)}
        assert schedule == sorted(schedule, key=index.__getitem__)
        cone = fanout_cone(small_netlist, some_gate)
        assert set(schedule) <= cone


class TestConeSpan:
    def test_empty(self):
        assert cone_span([]) == 0

    def test_single(self):
        assert cone_span([5]) == 1

    def test_spread(self):
        assert cone_span([3, 9, 5]) == 7
