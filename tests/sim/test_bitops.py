"""Tests for packed-word helpers, including hypothesis round-trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.bitops import (
    WORD_BITS,
    any_bit,
    count_bits,
    get_bit,
    num_words,
    pack_bits,
    pattern_mask,
    popcount,
    random_patterns,
    unpack_bits,
)


class TestNumWords:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3)]
    )
    def test_values(self, n, expected):
        assert num_words(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            num_words(-1)


class TestPatternMask:
    def test_partial_word(self):
        mask = pattern_mask(5)
        assert mask.tolist() == [0b11111]

    def test_full_word(self):
        mask = pattern_mask(64)
        assert mask.tolist() == [0xFFFFFFFFFFFFFFFF]

    def test_multi_word(self):
        mask = pattern_mask(70)
        assert mask[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert mask[1] == np.uint64(0b111111)

    def test_zero_patterns(self):
        assert pattern_mask(0).size == 0

    @pytest.mark.parametrize("n", [1, 63, 65, 100, 127, 129, 953])
    def test_non_word_multiple_tail(self, n):
        """The last word masks off exactly the unused tail bits."""
        mask = pattern_mask(n)
        assert mask.size == num_words(n)
        assert popcount(mask) == n
        tail_bits = n % WORD_BITS
        assert int(mask[-1]) == (1 << tail_bits) - 1

    @pytest.mark.parametrize("n", [100, 129, 953])
    def test_masking_clears_tail_only(self, n):
        """ANDing all-ones with the mask keeps every pattern bit and
        clears every tail bit — the invariant the simulators rely on."""
        ones = np.full(num_words(n), np.uint64(0xFFFFFFFFFFFFFFFF))
        masked = ones & pattern_mask(n)
        assert unpack_bits(masked, n) == [1] * n
        assert popcount(masked) == n  # nothing above bit n survives

    def test_pack_bits_never_sets_tail(self):
        vec = pack_bits([1] * 100)
        assert np.array_equal(vec, vec & pattern_mask(100))


@given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
def test_pack_unpack_round_trip(bits):
    vec = pack_bits(bits)
    assert unpack_bits(vec, len(bits)) == bits


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_popcount_matches_sum(bits):
    assert popcount(pack_bits(bits)) == sum(bits)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200), st.data())
def test_get_bit(bits, data):
    idx = data.draw(st.integers(0, len(bits) - 1))
    assert get_bit(pack_bits(bits), idx) == bits[idx]


@pytest.fixture(params=["native", "byte-table"])
def popcount_branch(request, monkeypatch):
    """Run a test under numpy's ``bitwise_count`` (where it exists) and
    under the per-byte table fallback numpy 1.x takes."""
    if request.param == "native":
        if not hasattr(np, "bitwise_count"):
            pytest.skip("numpy has no bitwise_count")
    else:
        monkeypatch.delattr(np, "bitwise_count", raising=False)
    return request.param


class TestCountBits:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    @pytest.mark.parametrize("axis", [None, 0, -1, (1, 2), (0, 2)])
    def test_matches_unpacked_sum(self, popcount_branch, rng, dtype, axis):
        packed = rng.integers(
            0, np.iinfo(dtype).max, size=(3, 4, 5), dtype=dtype, endpoint=True
        )
        bits = np.unpackbits(packed[..., np.newaxis].view(np.uint8), axis=-1)
        expected = bits.reshape(packed.shape + (-1,)).sum(axis=-1).sum(axis=axis)
        counted = count_bits(packed, axis=axis)
        assert counted.dtype == np.int64
        np.testing.assert_array_equal(counted, expected)

    def test_non_contiguous_input(self, popcount_branch, rng):
        packed = rng.integers(0, 256, size=(6, 8), dtype=np.uint8).T[::2]
        expected = np.unpackbits(packed[..., np.newaxis], axis=-1).sum(axis=(1, 2))
        np.testing.assert_array_equal(count_bits(packed, axis=1), expected)

    def test_empty_axis_counts_zero(self, popcount_branch):
        packed = np.zeros((2, 0), dtype=np.uint32)
        np.testing.assert_array_equal(count_bits(packed, axis=1), [0, 0])

    def test_popcount_uses_it(self, popcount_branch):
        assert popcount(pattern_mask(100)) == 100
        assert popcount(np.zeros(2, dtype=np.uint64)) == 0


class TestAnyBit:
    def test_empty_vector(self):
        assert not any_bit(np.zeros(0, dtype=np.uint64))

    def test_zero(self):
        assert not any_bit(np.zeros(3, dtype=np.uint64))

    def test_nonzero(self):
        vec = np.zeros(3, dtype=np.uint64)
        vec[2] = np.uint64(1) << np.uint64(17)
        assert any_bit(vec)


class TestRandomPatterns:
    def test_shape_and_tail_cleared(self, rng):
        matrix = random_patterns(5, 70, rng)
        assert matrix.shape == (5, 2)
        tail_mask = ~pattern_mask(70)[1]
        assert all(int(row[1]) & int(tail_mask) == 0 for row in matrix)

    def test_deterministic_under_seed(self):
        a = random_patterns(3, 100, np.random.default_rng(9))
        b = random_patterns(3, 100, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_nontrivial(self, rng):
        matrix = random_patterns(4, 256, rng)
        assert popcount(matrix[0]) > 0
