"""Packed-word helpers for 64-pattern-parallel simulation.

A *pattern vector* for one net is a ``numpy`` array of ``uint64`` words;
bit ``p % 64`` of word ``p // 64`` holds the net's value under pattern
``p``.  All simulators in :mod:`repro.sim` operate on these vectors.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

WORD_BITS = 64


def num_words(num_patterns: int) -> int:
    """Words needed to hold ``num_patterns`` bits."""
    if num_patterns < 0:
        raise ValueError("num_patterns must be non-negative")
    return (num_patterns + WORD_BITS - 1) // WORD_BITS


def pattern_mask(num_patterns: int) -> np.ndarray:
    """Word vector with exactly the first ``num_patterns`` bits set.

    Used to discard garbage in the unused high bits after inverting gates.
    """
    words = num_words(num_patterns)
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = num_patterns % WORD_BITS
    if words and tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def pack_bits(bits: Iterable[int]) -> np.ndarray:
    """Pack an iterable of 0/1 values into a word vector (LSB first)."""
    bit_list = [1 if b else 0 for b in bits]
    vec = np.zeros(num_words(len(bit_list)), dtype=np.uint64)
    for p, b in enumerate(bit_list):
        if b:
            vec[p // WORD_BITS] |= np.uint64(1) << np.uint64(p % WORD_BITS)
    return vec


def unpack_bits(vec: np.ndarray, num_patterns: int) -> List[int]:
    """Inverse of :func:`pack_bits`."""
    out = []
    for p in range(num_patterns):
        word = int(vec[p // WORD_BITS])
        out.append((word >> (p % WORD_BITS)) & 1)
    return out


def get_bit(vec: np.ndarray, pattern: int) -> int:
    """Value of one pattern's bit in a word vector."""
    return (int(vec[pattern // WORD_BITS]) >> (pattern % WORD_BITS)) & 1


# Per-byte set-bit counts, the fallback when numpy lacks a native popcount.
_BYTE_POPCOUNT = np.array(
    [bin(b).count("1") for b in range(256)], dtype=np.uint8
)


def count_bits(packed: np.ndarray, axis=None) -> np.ndarray:
    """Set bits of an unsigned-integer array, summed along ``axis`` (an int,
    a tuple of ints or ``None`` for all axes, as in ``np.sum``).

    Uses ``np.bitwise_count`` where numpy has it (numpy >= 2) and the
    per-byte table otherwise; both return ``int64`` counts.
    """
    if hasattr(np, "bitwise_count"):
        per_element = np.bitwise_count(packed)
    else:
        data = np.ascontiguousarray(packed)
        as_bytes = data.reshape(-1).view(np.uint8).reshape(
            data.shape + (data.itemsize,)
        )
        per_element = _BYTE_POPCOUNT[as_bytes].sum(axis=-1, dtype=np.int64)
    return per_element.sum(axis=axis, dtype=np.int64)


def popcount(vec: np.ndarray) -> int:
    """Number of set bits across the whole word vector."""
    return int(count_bits(vec))


#: Positions per packed position word (:func:`position_words`).
POSITION_WORD_BITS = 32
_POSITION_WORD = np.dtype("<u4")


def position_words(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``[..., position]`` array into little-endian
    ``uint32`` words: position ``i`` is bit ``i % 32`` of word ``i // 32``;
    padding bits are zero."""
    length = mask.shape[-1]
    padded = np.zeros(
        mask.shape[:-1] + (num_position_words(length) * POSITION_WORD_BITS,),
        dtype=bool,
    )
    padded[..., :length] = mask
    return np.packbits(padded, axis=-1, bitorder="little").view(_POSITION_WORD)


def word_positions(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`position_words`: a boolean ``[..., position]``
    array of ``length`` positions."""
    return np.unpackbits(
        np.ascontiguousarray(words, dtype=_POSITION_WORD).view(np.uint8),
        axis=-1, count=length, bitorder="little",
    ).view(bool)


def num_position_words(length: int) -> int:
    """Words :func:`position_words` needs for ``length`` positions."""
    return -(-length // POSITION_WORD_BITS)


def any_bit(vec: np.ndarray) -> bool:
    """True if any bit is set."""
    return bool(np.any(vec))


def random_patterns(
    num_nets: int, num_patterns: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random pattern matrix of shape ``(num_nets, words)``, with
    unused tail bits cleared."""
    words = num_words(num_patterns)
    matrix = rng.integers(
        0, np.iinfo(np.uint64).max, size=(num_nets, words), dtype=np.uint64,
        endpoint=True,
    )
    matrix &= pattern_mask(num_patterns)
    return matrix
