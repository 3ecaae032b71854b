"""Tests for the four partitioning schemes (random-selection, interval,
deterministic, two-step) and the scheme factory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.lfsr import LFSR
from repro.core.deterministic import DeterministicPartitioner, fixed_interval_partition
from repro.core.interval import (
    IntervalPartitioner,
    default_length_bits,
    draw_interval_lengths,
    find_seed,
    intervals_to_partition,
    lengths_cover,
    lengths_cover_exactly,
)
from repro.core.partitions import PartitionError
from repro.core.random_selection import RandomSelectionPartitioner
from repro.core.two_step import TwoStepPartitioner, make_partitioner

from .partition_reference import (
    stepped_interval_lengths,
    stepped_random_partitions,
)

DEGREES = list(range(3, 33))


def _stream_lengths(degree):
    """1, 2, and the two lengths either side of the LFSR period; above
    degree 12 the period is too long to walk, so a multi-word stretch
    stands in."""
    if degree <= 12:
        return [1, 2, (1 << degree) - 2, 1 << degree]
    return [1, 2, 3 * degree + 1, 4096]


class TestRandomSelection:
    def test_partition_covers_chain(self):
        part = RandomSelectionPartitioner(100, 8).next_partition()
        assert part.length == 100
        assert sum(part.group_sizes()) == 100

    def test_group_count_must_be_power_of_two(self):
        with pytest.raises(PartitionError):
            RandomSelectionPartitioner(10, 6)

    def test_successive_partitions_differ(self):
        gen = RandomSelectionPartitioner(200, 4)
        a, b = gen.partitions(2)
        assert not np.array_equal(a.group_of, b.group_of)

    def test_deterministic_given_seed(self):
        a = RandomSelectionPartitioner(50, 4, seed=99).next_partition()
        b = RandomSelectionPartitioner(50, 4, seed=99).next_partition()
        assert np.array_equal(a.group_of, b.group_of)

    def test_labels_reasonably_balanced(self):
        part = RandomSelectionPartitioner(4096, 4).next_partition()
        sizes = part.group_sizes()
        assert min(sizes) > 4096 // 4 * 0.7
        assert max(sizes) < 4096 // 4 * 1.3

    def test_more_label_bits_than_lfsr_rejected(self):
        with pytest.raises(PartitionError):
            RandomSelectionPartitioner(10, 256, lfsr_degree=4)

    def test_scheme_tag(self):
        part = RandomSelectionPartitioner(10, 2).next_partition()
        assert part.scheme == "random-selection"


class TestStreamReadMatchesStepping:
    """The stream-read partitioners equal the shift-by-shift reference."""

    @pytest.mark.parametrize("degree", DEGREES)
    def test_random_selection_labels(self, degree):
        num_groups = 1 << min(degree, 4)
        for length in _stream_lengths(degree):
            part = RandomSelectionPartitioner(
                length, num_groups, lfsr_degree=degree
            ).next_partition()
            (expected,) = stepped_random_partitions(
                length, num_groups, 1, lfsr_degree=degree
            )
            assert part.group_of.tolist() == expected, length

    @pytest.mark.parametrize("degree", DEGREES)
    def test_interval_lengths(self, degree):
        bits = min(degree, 6)
        for count in _stream_lengths(degree):
            fast, slow = LFSR(degree, 0x2C9), LFSR(degree, 0x2C9)
            lengths = draw_interval_lengths(fast, count, bits)
            assert lengths == stepped_interval_lengths(slow, count, bits)
            assert fast.state == slow.state

    @pytest.mark.parametrize("degree", [3, 7, 16, 32])
    def test_ivr_continuity_across_partitions(self, degree):
        length = 2 * degree + 5
        gen = RandomSelectionPartitioner(length, 2, lfsr_degree=degree)
        parts = gen.partitions(16)
        expected = stepped_random_partitions(length, 2, 16, lfsr_degree=degree)
        assert [p.group_of.tolist() for p in parts] == expected
        reference = LFSR(degree, 0x5EED)
        reference.step_many(16 * length)
        assert gen.ivr.value == reference.state


class TestIntervalLengths:
    def test_default_length_bits_covers_in_expectation(self):
        for length, groups in [(29, 4), (211, 16), (6173, 32)]:
            bits = default_length_bits(length, groups)
            assert groups * (1 << (bits - 1)) >= length / 2

    def test_default_length_bits_validation(self):
        with pytest.raises(PartitionError):
            default_length_bits(0, 4)

    def test_draw_steps_once_per_interval(self):
        lfsr = LFSR(16, seed=0xB77)
        reference = LFSR(16, seed=0xB77)
        positions = reference.spread_stage_positions(4)
        lengths = draw_interval_lengths(lfsr, 5, 4)
        for expected in lengths:
            value = reference.peek_stages(positions)
            assert expected == (value if value else 16)
            reference.step()

    def test_zero_maps_to_max(self):
        # Stages 0, 4, 8, 12 all zero: the field reads 0 -> max length 16.
        lfsr = LFSR(16, seed=0b10)
        lengths = draw_interval_lengths(lfsr, 1, 4)
        assert lengths[0] == 16

    def test_cover_predicates(self):
        assert lengths_cover([5, 5], 10)
        assert not lengths_cover([4, 5], 10)
        assert lengths_cover_exactly([5, 6], 10)
        assert not lengths_cover_exactly([10, 6], 10)  # second group unused
        assert not lengths_cover_exactly([4, 5], 10)


class TestFindSeed:
    def test_found_seed_covers_exactly(self):
        seed = find_seed(97, 8)
        lfsr = LFSR(16, seed)
        lengths = draw_interval_lengths(lfsr, 8, default_length_bits(97, 8))
        assert lengths_cover_exactly(lengths, 97)

    def test_start_seed_respected(self):
        first = find_seed(97, 8)
        second = find_seed(97, 8, start_seed=first + 1)
        assert second > first

    def test_exhaustion_raises(self):
        with pytest.raises(PartitionError):
            # 1 group of at most 2 cells can never cover 1000 cells.
            find_seed(1000, 1, lfsr_degree=8, length_bits=1, max_tries=50)


class TestIntervalsToPartition:
    def test_truncates_last_interval(self):
        part = intervals_to_partition([4, 10], 8, 2)
        assert part.group_of.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_trailing_groups_empty(self):
        part = intervals_to_partition([5, 5], 8, 4)
        assert part.group_sizes() == [5, 3, 0, 0]

    def test_non_covering_raises(self):
        with pytest.raises(PartitionError):
            intervals_to_partition([2, 2], 8, 2)


class TestIntervalPartitioner:
    def test_partitions_are_intervals(self):
        gen = IntervalPartitioner(211, 16)
        for part in gen.partitions(3):
            assert part.is_interval_partition()
            assert sum(part.group_sizes()) == 211

    def test_successive_partitions_use_new_seeds(self):
        gen = IntervalPartitioner(100, 8)
        gen.partitions(3)
        assert len(set(gen.used_seeds)) == 3

    def test_group_indices_monotone_along_chain(self):
        part = IntervalPartitioner(150, 8).next_partition()
        diffs = np.diff(part.group_of)
        assert (diffs >= 0).all()


class TestDeterministic:
    def test_fixed_intervals_equal_sizes(self):
        part = fixed_interval_partition(16, 4)
        assert part.group_sizes() == [4, 4, 4, 4]
        assert part.is_interval_partition()

    def test_boundary_group_short(self):
        part = fixed_interval_partition(10, 4)
        assert sum(part.group_sizes()) == 10
        assert max(part.group_sizes()) == 3

    def test_rotation_moves_boundaries(self):
        gen = DeterministicPartitioner(16, 4)
        a, b = gen.partitions(2)
        assert not np.array_equal(a.group_of, b.group_of)

    def test_invalid_args(self):
        with pytest.raises(PartitionError):
            fixed_interval_partition(0, 4)


class TestTwoStep:
    def test_first_partition_interval_then_random(self):
        gen = TwoStepPartitioner(100, 8, num_interval_partitions=1)
        parts = gen.partitions(4)
        assert parts[0].scheme == "interval"
        assert parts[0].is_interval_partition()
        for part in parts[1:]:
            assert part.scheme == "random-selection"

    def test_multiple_interval_partitions(self):
        gen = TwoStepPartitioner(100, 8, num_interval_partitions=3)
        parts = gen.partitions(5)
        assert [p.scheme for p in parts[:3]] == ["interval"] * 3
        assert [p.scheme for p in parts[3:]] == ["random-selection"] * 2

    def test_zero_interval_partitions_degenerates_to_random(self):
        gen = TwoStepPartitioner(100, 8, num_interval_partitions=0)
        assert gen.next_partition().scheme == "random-selection"

    def test_negative_rejected(self):
        with pytest.raises(PartitionError):
            TwoStepPartitioner(100, 8, num_interval_partitions=-1)


class TestFactory:
    @pytest.mark.parametrize(
        "scheme,expected_type",
        [
            ("interval", IntervalPartitioner),
            ("random", RandomSelectionPartitioner),
            ("two-step", TwoStepPartitioner),
            ("deterministic", DeterministicPartitioner),
        ],
    )
    def test_schemes(self, scheme, expected_type):
        gen = make_partitioner(scheme, 64, 8)
        assert isinstance(gen, expected_type)
        part = gen.next_partition()
        assert part.length == 64

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_partitioner("magic", 64, 8)


@settings(max_examples=20, deadline=None)
@given(
    length=st.integers(8, 400),
    groups_exp=st.integers(1, 5),
    scheme=st.sampled_from(["interval", "random", "two-step", "deterministic"]),
)
def test_all_schemes_produce_valid_covers(length, groups_exp, scheme):
    num_groups = 1 << groups_exp
    gen = make_partitioner(scheme, length, num_groups)
    for part in gen.partitions(2):
        assert part.length == length
        assert sum(part.group_sizes()) == length
