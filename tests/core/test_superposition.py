"""Tests for superposition-based pruning."""

import numpy as np
import pytest

from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.core.diagnosis import diagnose
from repro.core.superposition import apply_superposition, superposition_prune
from repro.core.two_step import make_partitioner
from repro.sim.bitops import pack_bits
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse


def make_response(cell_patterns, num_patterns=8):
    cell_errors = {
        cell: pack_bits([1 if p in pats else 0 for p in range(num_patterns)])
        for cell, pats in cell_patterns.items()
    }
    return FaultResponse(Fault("X", 0), cell_errors, num_patterns)


def run(response, config, scheme="random", groups=4, count=3, width=24):
    parts = make_partitioner(scheme, config.max_length, groups).partitions(count)
    compactor = LinearCompactor(width, config.num_chains)
    return diagnose(response, config, parts, compactor)


class TestPruning:
    def test_prunes_hitchhiker_cells(self, rng):
        """A cell that happens to share a failing group with the true
        failing cell in every partition survives intersection but is
        eliminated by a derived zero signature."""
        config = ScanConfig.single_chain(64)
        response = make_response({10: [0, 2], 40: [1, 5]})
        result = run(response, config, count=2)
        [pruned] = apply_superposition([result], config)
        assert pruned.candidate_cells <= result.candidate_cells
        assert pruned.sound

    def test_never_grows_candidates(self, rng):
        config = ScanConfig.single_chain(80)
        for seed in range(5):
            local = np.random.default_rng(seed)
            response = make_response(
                {int(c): [int(local.integers(0, 8))]
                 for c in local.choice(80, 4, replace=False)}
            )
            result = run(response, config, scheme="two-step", count=3)
            [pruned] = apply_superposition([result], config)
            assert pruned.candidate_cells <= result.candidate_cells

    def test_sound_at_width_24(self, rng):
        config = ScanConfig.single_chain(100)
        for seed in range(8):
            local = np.random.default_rng(100 + seed)
            response = make_response(
                {int(c): [int(p) for p in local.choice(8, 2, replace=False)]
                 for c in local.choice(100, 6, replace=False)}
            )
            result = run(response, config, scheme="two-step", groups=8, count=4)
            [pruned] = apply_superposition([result], config)
            assert pruned.sound

    def test_multi_chain_pruning_stays_per_channel(self, rng):
        config = ScanConfig.balanced(40, 4)
        response = make_response({5: [0], 25: [3]})
        result = run(response, config, scheme="two-step", count=3)
        [pruned] = apply_superposition([result], config)
        assert pruned.sound
        assert pruned.candidate_cells <= result.candidate_cells


class TestHandCrafted:
    def test_identical_failing_groups_prune_difference(self):
        """Two failing sessions observing the same single failing cell have
        equal signatures; everything in their symmetric difference must be
        pruned."""
        config = ScanConfig.single_chain(8)
        response = make_response({3: [0]})
        from repro.core.partitions import Partition

        p1 = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        p2 = Partition(np.array([1, 1, 0, 0, 0, 0, 1, 1]), 2)
        compactor = LinearCompactor(16, 1)
        result = diagnose(response, config, [p1, p2], compactor)
        # Intersection keeps positions {2, 3} (both failing groups).
        assert result.candidate_cells == {2, 3}
        [pruned] = apply_superposition([result], config)
        # Derived signature of {0,1} ∪ {4,5} is zero -> already outside the
        # mask; the informative pair is (group0 of p1, group0 of p2) whose
        # difference {0,1,4,5} is error-free.  Cell 2 is in neither failing
        # group's difference, so it can only be removed if some failing
        # pair separates 2 from 3 — here none does.
        assert pruned.candidate_cells == {2, 3}

    def test_separating_pair_removes_cell(self):
        config = ScanConfig.single_chain(8)
        response = make_response({3: [0]})
        from repro.core.partitions import Partition

        p1 = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        p2 = Partition(np.array([1, 1, 0, 0, 0, 0, 1, 1]), 2)
        p3 = Partition(np.array([0, 1, 0, 1, 0, 1, 0, 1]), 2)
        compactor = LinearCompactor(16, 1)
        result = diagnose(response, config, [p1, p2, p3], compactor)
        assert result.candidate_cells == {3}

    def test_equal_pair_prunes_its_difference(self):
        """Cells 3 and 5 fail.  (p1 g0, p3 g0) both hold only cell 3, so
        their derived signature is zero and their difference {2, 4} goes;
        intersection alone keeps {2, 3, 4, 5}."""
        config = ScanConfig.single_chain(8)
        response = make_response({3: [0], 5: [1, 2]})
        result = diagnose(response, config, self._separating_partitions(),
                          LinearCompactor(16, 1))
        assert result.candidate_cells == {2, 3, 4, 5}
        [pruned] = apply_superposition([result], config)
        assert pruned.candidate_cells == {3, 5}

    def test_combined_readout_prunes_every_chain(self):
        """One signature column observes both chains: a zero derived
        signature exonerates its difference on chain 1 as well."""
        config = ScanConfig.balanced(16, 2)
        response = make_response({3: [0], 5: [1, 2]})
        result = diagnose(response, config, self._separating_partitions(),
                          LinearCompactor(16, 2), channel_resolution=False)
        # Shift positions {2, 3, 4, 5} of both chains survive intersection.
        assert result.candidate_cells == {2, 3, 4, 5, 10, 11, 12, 13}
        [pruned] = apply_superposition([result], config)
        assert pruned.candidate_cells == {3, 5, 11, 13}

    def test_scalar_compactor_outcomes(self):
        """Outcomes holding only Python-int signatures (the scalar-compactor
        path) prune the same."""
        config = ScanConfig.single_chain(8)
        response = make_response({3: [0], 5: [1, 2]})
        inner = LinearCompactor(16, 1)

        class ScalarOnly:
            def impulse_response(self, channel, steps):
                return inner.impulse_response(channel, steps)

        result = diagnose(response, config, self._separating_partitions(),
                          ScalarOnly())
        [pruned] = apply_superposition([result], config)
        assert pruned.candidate_cells == {3, 5}

    def test_prune_kernel_on_tensor(self):
        from repro.core.partitions import Partition

        p1 = Partition(np.array([0, 0, 1, 1]), 2)
        p2 = Partition(np.array([0, 1, 1, 0]), 2)
        signatures = np.zeros((2, 2, 2, 1), dtype=np.uint64)
        signatures[0, :, 0, 0] = 7  # fault 0: p1 g0 == p2 g0 -> prune {1, 3}
        signatures[1, :, :, 0] = [[7, 0], [9, 0]]  # fault 1: nothing equal
        masks = np.ones((2, 1, 4), dtype=bool)
        pruned = superposition_prune([p1, p2], signatures, masks)
        assert pruned[0, 0].tolist() == [True, False, True, False]
        assert pruned[1].all()
        assert masks.all()  # inputs untouched

    @staticmethod
    def _separating_partitions():
        from repro.core.partitions import Partition

        return [
            Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2),
            Partition(np.array([1, 1, 0, 0, 0, 0, 1, 1]), 2),
            Partition(np.array([0, 0, 1, 0, 0, 1, 1, 1]), 2),
        ]

    def test_exact_mode_rejected(self):
        config = ScanConfig.single_chain(16)
        response = make_response({3: [0]})
        parts = make_partitioner("random", 16, 4).partitions(2)
        result = diagnose(response, config, parts, compactor=None)
        with pytest.raises(ValueError, match="MISR signatures"):
            apply_superposition([result], config)

    def test_missing_mask_rejected(self):
        from repro.core.diagnosis import DiagnosisResult

        result = DiagnosisResult(set(), set(), [], [], position_mask=None)
        with pytest.raises(ValueError, match="position mask"):
            apply_superposition([result], ScanConfig.single_chain(4))
