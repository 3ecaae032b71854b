"""SoA level-schedule kernel: structure invariants, caching, and
bit-identity against the per-gate reference.

The schedule is a pure reshuffling of the compiled ops list, so every
test here pins the same contract: whatever the per-gate loop computes,
the grouped kernel must compute bit for bit — good-machine and
fault-batched, on real and randomly generated netlists.
"""

import numpy as np
import pytest

from repro.bist.patterns import fast_pattern_matrices
from repro.circuit.bench import parse_bench
from repro.circuit.generate import CircuitProfile, generate_circuit
from repro.circuit.library import get_circuit
from repro.circuit.netlist import GateType
from repro.experiments import cache_disk
from repro.experiments.cache import cache_stats, clear_caches
from repro.sim import faultsim_batch, soa
from repro.sim.faults import collapse_faults
from repro.sim.faultsim_batch import simulate_batch, simulate_faults_batched
from repro.sim.logicsim import CompiledCircuit
from repro.sim.soa import build_schedule, schedule_for, structural_digest
from repro.soc.core_wrapper import EmbeddedCore

from .pergate_reference import simulate_batch_pergate, simulate_pergate
from .test_logicsim import GATE_BENCH


def assert_kernels_identical(compiled, num_patterns, seed=11):
    """Both gate-eval kernels over the same patterns, full value plane."""
    pi, ff = fast_pattern_matrices(
        compiled.num_inputs, compiled.num_scan_cells, num_patterns, seed=seed
    )
    fast = compiled.simulate(pi, ff, num_patterns)
    slow = simulate_pergate(compiled, pi, ff, num_patterns)
    np.testing.assert_array_equal(fast.values, slow.values)
    return fast


def assert_responses_identical(oracle, candidate):
    assert len(oracle) == len(candidate)
    for a, b in zip(oracle, candidate):
        assert a.fault == b.fault
        assert set(a.cell_errors) == set(b.cell_errors)
        for cell in a.cell_errors:
            np.testing.assert_array_equal(a.cell_errors[cell], b.cell_errors[cell])


def assert_schedules_equal(a, b):
    assert a.digest == b.digest
    assert (a.num_nets, a.num_gates, a.num_levels) == (
        b.num_nets, b.num_gates, b.num_levels
    )
    assert a.total_fanin_slots == b.total_fanin_slots
    assert len(a.groups) == len(b.groups)
    for ga, gb in zip(a.groups, b.groups):
        assert (ga.level, ga.op, ga.arity) == (gb.level, gb.op, gb.arity)
        np.testing.assert_array_equal(ga.out_rows, gb.out_rows)
        np.testing.assert_array_equal(ga.fanins, gb.fanins)
        np.testing.assert_array_equal(ga.inv, gb.inv)
    np.testing.assert_array_equal(a.level_of, b.level_of)


def sampled_population(name, num_patterns, count, seed):
    core = EmbeddedCore(get_circuit(name), num_patterns=num_patterns)
    faults = collapse_faults(core.netlist)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(faults), size=min(count, len(faults)), replace=False)
    return core.fault_simulator, [faults[i] for i in idx]


class TestScheduleStructure:
    def test_every_gate_scheduled_once(self, s27_compiled):
        schedule = build_schedule(s27_compiled)
        scheduled = sorted(
            int(r) for grp in schedule.groups for r in grp.out_rows
        )
        assert scheduled == sorted(op[0] for op in s27_compiled._ops)
        assert schedule.num_gates == len(s27_compiled._ops)

    def test_group_homogeneity(self, small_compiled):
        schedule = build_schedule(small_compiled)
        for grp in schedule.groups:
            n = grp.num_gates
            assert grp.out_rows.shape == (n,)
            assert grp.fanins.shape == (n, grp.arity)
            assert grp.inv.shape == (n,)
            assert set(np.unique(grp.inv)) <= {0, int(soa._ALL_ONES)}
            np.testing.assert_array_equal(
                schedule.level_of[grp.out_rows], grp.level
            )

    def test_fanins_at_strictly_lower_levels(self, small_compiled):
        schedule = build_schedule(small_compiled)
        for grp in schedule.groups:
            fanin_levels = schedule.level_of[grp.fanins]
            assert (fanin_levels < grp.level).all()

    def test_groups_sorted_by_level_op_arity(self, small_compiled):
        schedule = build_schedule(small_compiled)
        keys = [(g.level, g.op, g.arity) for g in schedule.groups]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_total_fanin_slots(self, s27_compiled):
        schedule = build_schedule(s27_compiled)
        assert schedule.total_fanin_slots == sum(
            len(op[3]) for op in s27_compiled._ops
        )

    def test_deterministic_build_and_stable_digest(self, small_netlist):
        a = CompiledCircuit(small_netlist)
        b = CompiledCircuit(small_netlist)
        assert structural_digest(a) == structural_digest(b)
        assert_schedules_equal(build_schedule(a), build_schedule(b))

    def test_digest_distinguishes_circuits(self, s27_compiled, small_compiled):
        assert structural_digest(s27_compiled) != structural_digest(small_compiled)

    def test_instance_schedule_cached(self, s27_compiled):
        assert s27_compiled.soa_schedule() is s27_compiled.soa_schedule()


class TestGoodMachineIdentity:
    @pytest.mark.parametrize(
        "name,patterns", [("s27", 100), ("s953", 128), ("s5378", 96)]
    )
    def test_bit_identical_to_per_gate(self, name, patterns):
        compiled = CompiledCircuit(get_circuit(name))
        assert_kernels_identical(compiled, patterns)

    def test_truth_table_circuit(self):
        compiled = CompiledCircuit(parse_bench(GATE_BENCH, name="gates"))
        assert_kernels_identical(compiled, 64, seed=5)

    def test_tail_bits_stay_clean(self, small_compiled):
        # 100 patterns leaves 28 unused tail bits in the second word; the
        # masked scatter must never set them.
        from repro.sim.bitops import pattern_mask

        result = assert_kernels_identical(small_compiled, 100, seed=9)
        mask = pattern_mask(100)
        np.testing.assert_array_equal(result.values & mask, result.values)

    def test_simulate_counts_one_sim(self, small_compiled):
        from repro.telemetry import METRICS

        pi, ff = fast_pattern_matrices(
            small_compiled.num_inputs, small_compiled.num_scan_cells, 48, seed=2
        )
        before = METRICS.snapshot()
        small_compiled.simulate(pi, ff, 48)
        delta = METRICS.diff(before)
        assert delta["counters"].get("logicsim.sims") == 1


class TestGeneratedNetlists:
    """Property test: random netlists covering every gate type and mixed
    arities evaluate bit-identically under both kernels."""

    PROFILES = [
        CircuitProfile(name=f"soa-prop-{i}", num_inputs=ins, num_outputs=outs,
                       num_flip_flops=ffs, num_gates=gates, depth=depth)
        for i, (ins, outs, ffs, gates, depth) in enumerate(
            [(4, 3, 10, 80, 4), (8, 5, 30, 220, 7), (5, 4, 16, 140, 10)]
        )
    ]

    def test_all_gate_types_and_arities_covered(self):
        types = set()
        arities = set()
        for profile in self.PROFILES:
            for seed in (1, 2):
                netlist = generate_circuit(profile, seed=seed)
                for gate in netlist.gates.values():
                    if gate.gtype.is_combinational:
                        types.add(gate.gtype)
                        arities.add(len(gate.fanins))
        assert types == {
            GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
            GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
        }
        assert {1, 2, 3}.issubset(arities)

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_netlist_bit_identical(self, profile, seed):
        compiled = CompiledCircuit(generate_circuit(profile, seed=seed))
        assert_kernels_identical(compiled, 77, seed=seed * 31)


class TestBatchedIdentity:
    @pytest.mark.parametrize(
        "name,patterns,count",
        [("s27", 100, 60), ("s953", 128, 80), ("s5378", 64, 40)],
    )
    def test_soa_cone_matches_event_oracle(self, name, patterns, count,
                                           monkeypatch):
        monkeypatch.setattr(faultsim_batch, "DEFAULT_BATCH", 16)
        sim, faults = sampled_population(name, patterns, count, seed=13)
        oracle = [sim.simulate_fault(f) for f in faults]
        batched = simulate_faults_batched(sim, faults)
        assert_responses_identical(oracle, batched)

    def test_soa_batch_matches_per_gate_batch(self):
        sim, faults = sampled_population("s953", 128, 48, seed=19)
        per_gate = simulate_batch_pergate(sim, faults)
        via_soa = simulate_batch(sim, faults)
        assert_responses_identical(per_gate, via_soa)


class TestScheduleCache:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_memoized_in_memory(self, s27_netlist):
        compiled = CompiledCircuit(s27_netlist)
        first = schedule_for(compiled)
        second = schedule_for(compiled)
        assert second is first
        stats = cache_stats()
        assert stats.misses.get("soa-schedule") == 1
        assert stats.hits.get("soa-schedule") == 1

    def test_disk_round_trip(self, s27_netlist, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", str(tmp_path / "dc"))
        compiled = CompiledCircuit(s27_netlist)
        built = schedule_for(compiled)
        clear_caches()  # memory gone; the next lookup must come off disk
        before = cache_disk.stats()
        loaded = schedule_for(CompiledCircuit(s27_netlist))
        after = cache_disk.stats()
        assert after["hits"] >= before["hits"] + 1
        assert loaded is not built
        assert_schedules_equal(built, loaded)
