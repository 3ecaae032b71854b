"""Independent exact-comparison oracle for failing-cell diagnosis.

Definition (the consistency view of diagnosis with multiple
observations): under exact comparison, a session fails iff some failing
cell is observed by it, and a session of group ``g`` observes, on chain
``w``, exactly the cells of chain ``w`` whose shift position ``g``'s
partition assigns to ``g``.  So a cell is a candidate after partitions
``0..p`` iff, in every one of them, the ``(group, chain)`` bucket that
contains it holds a failing cell.

The oracle evaluates that definition directly as set algebra over
bucket membership: ``group_of``, the fault's failing cells, and each
cell's (chain, position) taken from the scan chains themselves.  It shares
nothing with the program's event extraction, signature scatter or MISR
model.

A MISR can only turn a failing session into a passing one (aliasing), so
MISR-mode candidates lie between the actual failing cells and the
oracle's candidates.  A w-bit MISR aliases a failing session with
probability about 2^-w, as in simulation studies of MISR aliasing; the
failing cells such a session drops are mis-prunes.  The check counts them
and bounds them by what that probability allows.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from common import CheckFailed

#: A population fails the aliasing check when its mis-pruned faults are
#: this unlikely under 2^-w aliasing of every failing session.
ALIASING_TAIL = 1e-9


class Oracle(NamedTuple):
    #: ``mask[f, c]``: cell ``c`` is a candidate of fault ``f`` after all
    #: partitions.
    mask: np.ndarray
    #: ``history[f, p]``: candidate count after the first ``p + 1``
    #: partitions.
    history: np.ndarray
    #: Sessions, over all faults and partitions, that fail under exact
    #: comparison (each one a chance for a MISR to alias).
    failing_sessions: int


def cell_locations(chains: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(chain, position)`` of every cell id, read off the chain lists."""
    num_cells = sum(len(chain) for chain in chains)
    chain_of = np.full(num_cells, -1, dtype=np.int64)
    position_of = np.full(num_cells, -1, dtype=np.int64)
    for w, chain in enumerate(chains):
        cells = np.asarray(chain, dtype=np.int64)
        chain_of[cells] = w
        position_of[cells] = np.arange(len(cells))
    return chain_of, position_of


def oracle_candidates(
    failing_cells: Sequence[Sequence[int]],
    chains: Sequence[Sequence[int]],
    partitions: Sequence,
) -> Oracle:
    """Exact-comparison candidates of every fault."""
    chain_of, position_of = cell_locations(chains)
    num_chains = len(chains)
    num_faults = len(failing_cells)
    fault_idx = np.repeat(np.arange(num_faults),
                          [len(cells) for cells in failing_cells])
    cell_idx = np.asarray([c for cells in failing_cells for c in cells],
                          dtype=np.int64)
    mask = np.ones((num_faults, chain_of.size), dtype=bool)
    history = np.zeros((num_faults, len(partitions)), dtype=np.int64)
    failing_sessions = 0
    for p, part in enumerate(partitions):
        bucket = np.asarray(part.group_of)[position_of] * num_chains + chain_of
        holds_failing = np.zeros((num_faults, part.num_groups * num_chains),
                                 dtype=bool)
        holds_failing[fault_idx, bucket[cell_idx]] = True
        failing_sessions += int(holds_failing.sum())
        mask &= holds_failing[:, bucket]
        history[:, p] = mask.sum(axis=1)
    return Oracle(mask, history, failing_sessions)


def aliasing_limit(expected: float, tail: float = ALIASING_TAIL) -> int:
    """Smallest ``k`` with P(X > k) <= ``tail`` for X ~ Poisson(expected)."""
    if expected > 50:  # normal approximation, well past any real MISR width
        return math.ceil(expected + 7 * math.sqrt(expected))
    k, term = 0, math.exp(-expected)
    cdf = term
    while 1.0 - cdf > tail:
        k += 1
        term *= expected / k
        cdf += term
    return k


def cell_mask(cell_sets: Sequence[Sequence[int]], num_cells: int) -> np.ndarray:
    """Boolean ``[fault, cell]`` matrix of per-fault cell collections."""
    mask = np.zeros((len(cell_sets), num_cells), dtype=bool)
    for f, cells in enumerate(cell_sets):
        if cells:
            mask[f, list(cells)] = True
    return mask


def check_results(label: str, failing: Sequence[Sequence[int]], oracle: Oracle,
                  results: Sequence, misr_width: int = 0) -> Dict[str, int]:
    """Check one population's ``DiagnosisResult`` objects against the oracle.

    ``failing`` are the input faults' failing cells and ``oracle`` their
    :func:`oracle_candidates`.  The reported actual cells must equal the
    input's.  Exact comparison (``misr_width=0``) must reproduce the
    oracle's candidates and prefix history.  MISR comparison must satisfy
    ``candidates <= oracle`` (and the same for every history prefix) and
    ``failing <= candidates`` up to mis-prunes, which are counted and
    bounded by :func:`aliasing_limit`.  Raises :class:`CheckFailed`.
    """
    num_faults, num_cells = oracle.mask.shape
    if len(results) != num_faults:
        raise CheckFailed(f"{label}: {len(results)} results for "
                          f"{num_faults} faults")
    actual = cell_mask(failing, num_cells)
    if not np.array_equal(cell_mask([r.actual_cells for r in results], num_cells),
                          actual):
        raise CheckFailed(f"{label}: reported actual cells differ from the input")
    got = cell_mask([r.candidate_cells for r in results], num_cells)
    got_history = np.asarray([r.candidate_history for r in results],
                             dtype=np.int64).reshape(oracle.history.shape)
    if not misr_width:
        bad = np.flatnonzero((got != oracle.mask).any(axis=1))
        if bad.size:
            f = int(bad[0])
            raise CheckFailed(
                f"{label}: {bad.size} faults differ from the oracle; fault {f} "
                f"has {int(got[f].sum())} candidates, oracle "
                f"{int(oracle.mask[f].sum())}")
        if not np.array_equal(got_history, oracle.history):
            raise CheckFailed(f"{label}: candidate history differs from the oracle")
        return {"mispruned_cells": 0, "mispruned_faults": 0}
    if (got & ~oracle.mask).any():
        raise CheckFailed(f"{label}: MISR candidates outside the oracle's")
    if (got_history > oracle.history).any():
        raise CheckFailed(f"{label}: MISR history above the oracle's")
    missed = actual & ~got
    faults = int(missed.any(axis=1).sum())
    limit = aliasing_limit(oracle.failing_sessions * 2.0 ** -misr_width)
    if faults > limit:
        raise CheckFailed(
            f"{label}: {faults} of {num_faults} faults lost a failing cell to "
            f"MISR aliasing; a {misr_width}-bit MISR over "
            f"{oracle.failing_sessions} failing sessions allows {limit}")
    return {"mispruned_cells": int(missed.sum()), "mispruned_faults": faults}
