"""Tests for the MISR and its linear error-signature model."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.lfsr import PRIMITIVE_TAPS
from repro.bist.misr import (MISR, LinearCompactor, _char_poly_mask, _mat_mul,
                             _mat_vec)


def mat_pow(cols, exponent, width):
    result = [1 << j for j in range(width)]
    base = list(cols)
    while exponent:
        if exponent & 1:
            result = _mat_mul(base, result)
        base = _mat_mul(base, base)
        exponent >>= 1
    return result


def prime_factors(n):
    factors = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    return factors


class TestTransitionMatrix:
    @pytest.mark.parametrize("width", [8, 16, 24])
    def test_matrix_has_maximal_order(self, width):
        """The characteristic polynomial must be primitive: A's
        multiplicative order is exactly 2**width - 1.  (This is the check
        that caught a polynomial-encoding bug during development: a
        singular A silently aliases signatures.)"""
        cols = MISR(width, 1).transition_columns()
        identity = [1 << j for j in range(width)]
        order_bound = (1 << width) - 1
        assert mat_pow(cols, order_bound, width) == identity
        for p in prime_factors(order_bound):
            assert mat_pow(cols, order_bound // p, width) != identity

    def test_matrix_is_invertible(self):
        cols = MISR(16, 1).transition_columns()
        # Invertible over GF(2): columns are linearly independent.  Gaussian
        # elimination via XOR.
        rows = list(cols)
        rank = 0
        for bit in range(16):
            pivot = next(
                (i for i in range(rank, len(rows)) if rows[i] >> bit & 1), None
            )
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(len(rows)):
                if i != rank and rows[i] >> bit & 1:
                    rows[i] ^= rows[rank]
            rank += 1
        assert rank == 16


class TestMISR:
    def test_unknown_width(self):
        with pytest.raises(ValueError):
            MISR(33, 1)

    def test_num_inputs_validation(self):
        with pytest.raises(ValueError):
            MISR(8, 0)
        with pytest.raises(ValueError):
            MISR(8, 9)

    def test_input_stages_spread(self):
        misr = MISR(16, 4)
        assert misr.input_stages == (0, 4, 8, 12)

    def test_zero_stream_keeps_zero_state(self):
        misr = MISR(16, 1)
        assert misr.compact([[0]] * 100, init=0) == 0

    def test_single_injection_last_cycle(self):
        misr = MISR(16, 1)
        sig = misr.compact([[0]] * 9 + [[1]], init=0)
        assert sig == 1  # injected at stage 0, no further transitions

    def test_deterministic(self):
        stream = [[i % 2] for i in range(50)]
        assert MISR(16, 1).compact(stream) == MISR(16, 1).compact(stream)


class TestLinearity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=10, max_size=120),
        st.lists(st.integers(0, 1), min_size=10, max_size=120),
    )
    def test_signature_of_xor_is_xor_of_signatures(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        misr = MISR(16, 1)
        sig_a = misr.compact([[bit] for bit in a], init=0)
        sig_b = misr.compact([[bit] for bit in b], init=0)
        sig_ab = misr.compact([[x ^ y] for x, y in zip(a, b)], init=0)
        assert sig_ab == sig_a ^ sig_b

    def test_initial_state_superposition(self):
        misr = MISR(16, 1)
        stream = [[i % 3 == 0] for i in range(40)]
        sig_with_init = misr.compact(stream, init=0xBEEF)
        sig_zero_init = misr.compact(stream, init=0)
        sig_init_only = misr.compact([[0]] * 40, init=0xBEEF)
        assert sig_with_init == sig_zero_init ^ sig_init_only


class TestParityCompactor:
    def test_signature_is_event_parity(self):
        from repro.bist.misr import ParityCompactor

        compactor = ParityCompactor(2)
        assert compactor.error_signature([], 10) == 0
        assert compactor.error_signature([(0, 1)], 10) == 1
        assert compactor.error_signature([(0, 1), (1, 5)], 10) == 0
        assert compactor.error_signature([(0, 1), (1, 5), (0, 9)], 10) == 1

    def test_validation(self):
        from repro.bist.misr import ParityCompactor

        compactor = ParityCompactor(1)
        with pytest.raises(ValueError):
            compactor.impulse_response(1, 3)
        with pytest.raises(ValueError):
            compactor.impulse_response(0, -1)
        with pytest.raises(ValueError):
            compactor.error_signature([(0, 10)], 10)

    def test_even_error_groups_alias(self, rng):
        """The structural weakness: a group with two errors passes."""
        from repro.bist.misr import ParityCompactor
        from repro.bist.session import run_partition_sessions

        events = [(0, 0, 3), (1, 0, 7)]  # two errors, same group
        group_of = np.zeros(4, dtype=np.int32)
        outcome = run_partition_sessions(
            events, group_of, 1, 40, ParityCompactor(1)
        )
        assert outcome.failing_groups == []  # aliased!


class TestLinearCompactor:
    @pytest.mark.parametrize("num_inputs", [1, 3, 8])
    def test_matches_stepped_misr(self, num_inputs):
        random.seed(num_inputs)
        total = 400
        events = [
            (random.randrange(num_inputs), cycle)
            for cycle in random.sample(range(total), 30)
        ]
        compactor = LinearCompactor(16, num_inputs)
        sig_linear = compactor.error_signature(events, total)
        stream = [[0] * num_inputs for _ in range(total)]
        for channel, cycle in events:
            stream[cycle][channel] ^= 1
        sig_hw = MISR(16, num_inputs).compact(stream, init=0)
        assert sig_linear == sig_hw

    def test_empty_event_list(self):
        assert LinearCompactor(16, 1).error_signature([], 100) == 0

    def test_cycle_out_of_range(self):
        compactor = LinearCompactor(16, 1)
        with pytest.raises(ValueError):
            compactor.error_signature([(0, 100)], 100)

    def test_duplicate_events_cancel(self):
        compactor = LinearCompactor(16, 1)
        assert compactor.error_signature([(0, 5), (0, 5)], 10) == 0

    def test_impulse_response_cached(self):
        compactor = LinearCompactor(16, 2)
        first = compactor.impulse_response(1, 12345)
        second = compactor.impulse_response(1, 12345)
        assert first == second != 0

    def test_long_session_within_power_budget(self):
        compactor = LinearCompactor(16, 1)
        # ~1e6 cycles, as in the SOC experiments.
        sig = compactor.error_signature([(0, 0)], 1_000_000)
        assert sig != 0


def impulse_table_reference(compactor, channel, max_steps):
    """``A**s @ inject_c`` for ``s = 0 .. max_steps``, one Galois step of
    the register at a time: the reference for
    :meth:`LinearCompactor.impulse_table`."""
    poly = _char_poly_mask(compactor.width)
    state_mask = (1 << compactor.width) - 1
    state = 1 << compactor.input_stages[channel]
    table = [state]
    for _ in range(max_steps):
        top = (state >> (compactor.width - 1)) & 1
        state = (state << 1) & state_mask
        if top:
            state ^= poly
        table.append(state)
    return table


class TestImpulseTable:
    @pytest.mark.parametrize("width", sorted(PRIMITIVE_TAPS))
    def test_bit_identical_to_stepped_reference_across_growth(self, width):
        num_inputs = min(3, width)
        compactor = LinearCompactor(width, num_inputs)
        reference = {c: impulse_table_reference(compactor, c, 3000)
                     for c in range(num_inputs)}
        # Grow each channel's cached table through sizes that do and do
        # not land on a power of two, and re-read a shorter prefix.
        for max_steps in (0, 1, 2, 7, 64, 100, 1023, 1024, 3000, 500):
            for channel in range(num_inputs):
                table = compactor.impulse_table(channel, max_steps)
                assert table.dtype == np.uint64
                assert table.size >= max_steps + 1
                assert table.tolist() == reference[channel][:table.size]

    def test_cached_table_is_reused(self):
        compactor = LinearCompactor(16, 2)
        table = compactor.impulse_table(1, 200)
        assert compactor.impulse_table(1, 150) is table
        assert compactor.impulse_table(1, 201) is not table

    def test_square_and_multiply_beyond_table_limit(self):
        compactor = LinearCompactor(32, 4)
        channels = np.array([0, 1, 2, 3, 1])
        steps = np.array([0, 5, 1 << 22, (1 << 30) + 12345, (1 << 39) - 1])
        got = compactor.batch_impulse_responses(channels, steps)
        assert got.tolist() == [compactor.impulse_response(int(c), int(s))
                                for c, s in zip(channels, steps)]
