"""Tests for the LFSR / IVR, including maximal-period checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.lfsr import IVR, LFSR, PRIMITIVE_TAPS, stage_labels


class TestPeriod:
    @pytest.mark.parametrize("degree", list(range(3, 15)))
    def test_maximal_period(self, degree):
        lfsr = LFSR(degree, seed=1)
        assert lfsr.period() == (1 << degree) - 1

    def test_degree_16_period(self):
        # The paper's experiments use a degree-16 primitive polynomial.
        lfsr = LFSR(16, seed=0xACE1)
        assert lfsr.period() == (1 << 16) - 1


class TestStateInvariants:
    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            LFSR(8, seed=0)

    def test_state_stays_nonzero(self):
        lfsr = LFSR(8, seed=1)
        for _ in range(600):
            lfsr.step()
            assert lfsr.state != 0

    def test_state_masked_to_degree(self):
        lfsr = LFSR(8, seed=0x1FF)  # 9 bits; top truncated
        assert lfsr.state == 0xFF

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            LFSR(1)

    def test_unknown_degree_without_taps(self):
        with pytest.raises(ValueError, match="primitive taps"):
            LFSR(33)

    def test_tap_out_of_range(self):
        with pytest.raises(ValueError):
            LFSR(8, taps=(9, 1))

    def test_copy_is_independent(self):
        a = LFSR(8, seed=3)
        b = a.copy()
        a.step()
        assert a.state != b.state


class TestOutput:
    def test_output_is_pre_shift_lsb(self):
        lfsr = LFSR(8, seed=0b10101010)
        assert lfsr.step() == 0
        lfsr.load(0b10101011)
        assert lfsr.step() == 1

    def test_step_many_length(self):
        lfsr = LFSR(8, seed=7)
        assert len(lfsr.step_many(37)) == 37

    def test_output_balanced_over_period(self):
        lfsr = LFSR(10, seed=1)
        ones = sum(lfsr.step_many((1 << 10) - 1))
        assert ones == 1 << 9  # m-sequence has 2^(n-1) ones


class TestOutputBits:
    @pytest.mark.parametrize("degree", sorted(PRIMITIVE_TAPS))
    def test_matches_stepping(self, degree):
        a = LFSR(degree, seed=0x5EED)
        b = LFSR(degree, seed=0x5EED)
        bits = a.output_bits(3 * degree + 7)
        assert bits.dtype == np.uint8
        assert bits.tolist() == [b.step() for _ in range(3 * degree + 7)]
        assert a.state == b.state

    def test_zero_count(self):
        lfsr = LFSR(8, seed=9)
        assert lfsr.output_bits(0).size == 0
        assert lfsr.state == 9

    @pytest.mark.parametrize("degree", [3, 8, 16, 32])
    def test_stage_p_at_shift_t_is_output_bit_t_plus_p(self, degree):
        lfsr = LFSR(degree, seed=0xB77)
        stream = lfsr.copy().output_bits(40 + degree)
        for t in range(40):
            for p in range(degree):
                assert (lfsr.state >> p) & 1 == stream[t + p]
            lfsr.step()


class TestStageLabels:
    @pytest.mark.parametrize("degree", [3, 5, 16, 32])
    def test_matches_peek_then_step(self, degree):
        positions = [degree - 1, 0, degree // 2]
        fast, slow = LFSR(degree, seed=0x1D), LFSR(degree, seed=0x1D)
        labels = stage_labels(fast, positions, 2 * degree + 3)
        expected = []
        for _ in range(2 * degree + 3):
            expected.append(slow.peek_stages(positions))
            slow.step()
        assert labels.tolist() == expected
        assert fast.state == slow.state

    def test_bad_position(self):
        lfsr = LFSR(8, seed=1)
        with pytest.raises(ValueError):
            stage_labels(lfsr, [8], 4)
        assert lfsr.state == 1


class TestPeek:
    def test_peek_bits(self):
        lfsr = LFSR(8, seed=0b1011_0110)
        assert lfsr.peek_bits(3) == 0b110
        assert lfsr.peek_bits(8) == 0b1011_0110

    def test_peek_too_many(self):
        with pytest.raises(ValueError):
            LFSR(8, seed=1).peek_bits(9)

    def test_peek_stages(self):
        lfsr = LFSR(8, seed=0b1000_0001)
        assert lfsr.peek_stages([0, 7]) == 0b11
        assert lfsr.peek_stages([1, 6]) == 0

    def test_peek_stages_bad_position(self):
        with pytest.raises(ValueError):
            LFSR(8, seed=1).peek_stages([8])

    def test_spread_stage_positions(self):
        lfsr = LFSR(16, seed=1)
        assert lfsr.spread_stage_positions(2) == [0, 8]
        assert lfsr.spread_stage_positions(4) == [0, 4, 8, 12]
        with pytest.raises(ValueError):
            lfsr.spread_stage_positions(17)

    def test_spread_labels_are_balanced(self):
        # Over the full period, every r-bit label must appear almost exactly
        # equally often (m-sequence window property).
        lfsr = LFSR(10, seed=1)
        positions = lfsr.spread_stage_positions(2)
        counts = [0, 0, 0, 0]
        for _ in range((1 << 10) - 1):
            counts[lfsr.peek_stages(positions)] += 1
            lfsr.step()
        assert max(counts) - min(counts) <= 1


class TestIVR:
    def test_reload_and_update(self):
        lfsr = LFSR(8, seed=42)
        ivr = IVR(lfsr.state)
        lfsr.step_many(10)
        moved = lfsr.state
        ivr.reload(lfsr)
        assert lfsr.state == 42
        lfsr.step_many(10)
        assert lfsr.state == moved
        ivr.update_from(lfsr)
        assert ivr.value == moved


@settings(max_examples=30, deadline=None)
@given(degree=st.sampled_from(sorted(PRIMITIVE_TAPS)), seed=st.integers(1, 2**16))
def test_sequence_depends_only_on_state(degree, seed):
    seed = (seed % ((1 << degree) - 1)) + 1
    a = LFSR(degree, seed)
    b = LFSR(degree, seed)
    assert a.step_many(50) == b.step_many(50)
    assert a.state == b.state
