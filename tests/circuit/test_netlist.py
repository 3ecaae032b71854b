"""Unit tests for the netlist model."""

import pytest

from repro.circuit.netlist import (
    Gate,
    GateType,
    Netlist,
    NetlistError,
    merge_disjoint,
)


class TestGate:
    def test_input_gate_has_no_fanins(self):
        gate = Gate("A", GateType.INPUT)
        assert gate.fanins == ()

    def test_input_gate_rejects_fanins(self):
        with pytest.raises(NetlistError):
            Gate("A", GateType.INPUT, ("B",))

    @pytest.mark.parametrize("gtype", [GateType.NOT, GateType.BUF, GateType.DFF])
    def test_unary_gates_require_exactly_one_fanin(self, gtype):
        Gate("X", gtype, ("A",))
        with pytest.raises(NetlistError):
            Gate("X", gtype, ("A", "B"))
        with pytest.raises(NetlistError):
            Gate("X", gtype, ())

    @pytest.mark.parametrize(
        "gtype",
        [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR, GateType.XOR,
         GateType.XNOR],
    )
    def test_nary_gates_require_at_least_one_fanin(self, gtype):
        Gate("X", gtype, ("A",))
        Gate("X", gtype, ("A", "B", "C", "D"))
        with pytest.raises(NetlistError):
            Gate("X", gtype, ())

    def test_is_combinational(self):
        assert GateType.AND.is_combinational
        assert GateType.NOT.is_combinational
        assert not GateType.INPUT.is_combinational
        assert not GateType.DFF.is_combinational


class TestNetlist:
    def build_minimal(self):
        net = Netlist("minimal")
        net.add_input("A")
        net.add_input("B")
        net.add_gate("N1", GateType.AND, ["A", "B"])
        net.add_dff("F0", "N1")
        net.add_gate("N2", GateType.NOT, ["F0"])
        net.add_output("N2")
        return net

    def test_valid_netlist_passes_validation(self):
        self.build_minimal().validate()

    def test_duplicate_driver_rejected(self):
        net = self.build_minimal()
        with pytest.raises(NetlistError, match="multiple drivers"):
            net.add_gate("N1", GateType.OR, ["A", "B"])

    def test_duplicate_output_rejected(self):
        net = self.build_minimal()
        with pytest.raises(NetlistError, match="duplicate output"):
            net.add_output("N2")

    def test_dangling_fanin_detected(self):
        net = self.build_minimal()
        net.add_gate("N3", GateType.AND, ["A", "GHOST"])
        with pytest.raises(NetlistError, match="GHOST"):
            net.validate()

    def test_undriven_output_detected(self):
        net = self.build_minimal()
        net.add_output("MISSING")
        with pytest.raises(NetlistError, match="MISSING"):
            net.validate()

    def test_combinational_loop_detected(self):
        net = Netlist("loop")
        net.add_input("A")
        net.add_gate("X", GateType.AND, ["A", "Y"])
        net.add_gate("Y", GateType.OR, ["X", "A"])
        net.add_output("Y")
        with pytest.raises(NetlistError, match="loop"):
            net.validate()

    def test_loop_error_names_a_net_on_the_cycle(self):
        # D hangs downstream of the X -> Y -> Z loop: Kahn's sort leaves it
        # unordered too, but it is not on the cycle and must not be named.
        net = Netlist("loop")
        net.add_input("A")
        net.add_gate("D", GateType.NAND, ["Z", "A"])
        net.add_gate("X", GateType.AND, ["A", "Z"])
        net.add_gate("Y", GateType.OR, ["X", "A"])
        net.add_gate("Z", GateType.NOT, ["Y"])
        net.add_output("D")
        with pytest.raises(NetlistError,
                           match=r"combinational loop through net '[XYZ]'"):
            net.validate()

    def test_combinational_loop_rejected_at_compile(self):
        from repro.sim.logicsim import CompiledCircuit

        net = Netlist("loop")
        net.add_input("A")
        net.add_gate("X", GateType.AND, ["A", "Y"])
        net.add_gate("Y", GateType.OR, ["X", "A"])
        net.add_output("Y")
        net.validate_connectivity()  # the loop is the only defect
        with pytest.raises(NetlistError, match="loop"):
            CompiledCircuit(net)

    def test_dangling_net_rejected_at_compile(self):
        from repro.sim.logicsim import CompiledCircuit

        net = self.build_minimal()
        net.add_output("MISSING")
        with pytest.raises(NetlistError, match="MISSING"):
            CompiledCircuit(net)

    def test_sequential_loop_through_dff_is_legal(self):
        net = Netlist("seqloop")
        net.add_input("A")
        net.add_gate("N1", GateType.AND, ["A", "F0"])
        net.add_dff("F0", "N1")
        net.add_output("N1")
        net.validate()

    def test_flip_flops_in_insertion_order(self):
        net = self.build_minimal()
        net.add_dff("F9", "N1")
        assert [g.output for g in net.flip_flops] == ["F0", "F9"]

    def test_stats(self):
        stats = self.build_minimal().stats()
        assert stats == {"inputs": 2, "outputs": 1, "flip_flops": 1, "gates": 2}

    def test_fanout_map(self):
        net = self.build_minimal()
        fanout = net.fanout_map()
        assert set(fanout["A"]) == {"N1"}
        assert set(fanout["N1"]) == {"F0"}
        assert fanout["N2"] == []

    def test_nets_includes_everything(self):
        net = self.build_minimal()
        assert net.nets() == {"A", "B", "N1", "F0", "N2"}


class TestMergeDisjoint:
    def test_merge_prefixes_and_preserves_structure(self):
        a = Netlist("a")
        a.add_input("X")
        a.add_gate("G", GateType.NOT, ["X"])
        a.add_output("G")
        b = Netlist("b")
        b.add_input("X")
        b.add_gate("G", GateType.BUF, ["X"])
        b.add_output("G")
        merged = merge_disjoint("ab", [a, b])
        merged.validate()
        assert merged.inputs == ["a/X", "b/X"]
        assert merged.outputs == ["a/G", "b/G"]
        assert merged.gates["a/G"].gtype is GateType.NOT
        assert merged.gates["b/G"].gtype is GateType.BUF

    def test_merged_parts_stay_disjoint(self, tiny_netlist, s27_netlist):
        merged = merge_disjoint("soc", [tiny_netlist, s27_netlist])
        merged.validate()
        assert merged.num_flip_flops == (
            tiny_netlist.num_flip_flops + s27_netlist.num_flip_flops
        )
        fanout = merged.fanout_map()
        for net, sinks in fanout.items():
            prefix = net.split("/", 1)[0]
            assert all(s.split("/", 1)[0] == prefix for s in sinks)
