"""Level-packed structure-of-arrays (SoA) gate-evaluation schedule.

Good-machine simulation (:meth:`CompiledCircuit.simulate`) is
bit-parallel along the *pattern* axis and the cone kernel
(:mod:`repro.sim.faultsim_batch`) batches the *fault* axis; a loop over
the compiled ops would still pay a Python-level iteration per gate.
This module batches the third axis — *gates*: the levelized netlist is
compiled once into a schedule of homogeneous **level groups**, each holding every
combinational gate that shares a ``(level, opcode, fanin-arity)``
signature:

* ``fanins`` — an ``(n_gates, arity)`` int64 index matrix into the
  value plane;
* ``out_rows`` — the ``(n_gates,)`` output row vector;
* ``inv`` — a ``(n_gates,)`` uint64 invert mask (all-ones for
  NAND/NOR/XNOR/NOT, zero otherwise), applied as a single XOR.

Levelization guarantees every fanin of a level-``L`` gate lives at a
level ``< L``, so all gates inside one group are mutually independent
and a whole group evaluates as a handful of numpy ops — gather
``values[fanins]``, reduce along the arity axis
(``np.bitwise_and.reduce`` / ``or`` / ``xor``), XOR the invert mask,
apply the pattern mask, scatter to ``out_rows``.  A few hundred group
dispatches replace thousands of per-gate Python iterations.

The schedule is a pure function of the compiled netlist structure, so it
is built once per circuit and memoized through the standard
memory→disk cache tiers (kind ``"soa-schedule"``, keyed by circuit name
and a structural digest) — warm service starts pay nothing.

This is the only gate-evaluation kernel.  The per-gate loop it replaced
lives on as a test-only oracle (``tests/sim/pergate_reference.py``); the
two are bit-identical by construction: they evaluate the same compiled
ops with the same word arithmetic, only the iteration order within a
level differs — and within a level, order cannot matter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..telemetry import METRICS

#: Reduction ufunc per opcode (see ``logicsim._OP_*``).  BUF (3) never
#: reduces — buffers are single-operand and take the gather-only path.
_REDUCERS = {0: np.bitwise_and, 1: np.bitwise_or, 2: np.bitwise_xor}

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class LevelGroup:
    """All combinational gates sharing one ``(level, opcode, arity)``."""

    level: int
    op: int
    arity: int
    #: ``(n_gates,)`` int64 — value-plane rows the group writes.
    out_rows: np.ndarray
    #: ``(n_gates, arity)`` int64 — value-plane rows the group reads.
    fanins: np.ndarray
    #: ``(n_gates,)`` uint64 — all-ones where the gate output is
    #: inverted (NAND/NOR/XNOR/NOT), zero otherwise; applied as XOR.
    inv: np.ndarray

    @property
    def num_gates(self) -> int:
        return len(self.out_rows)


@dataclass
class SoASchedule:
    """A circuit's full level-group schedule plus lookup metadata."""

    num_nets: int
    num_gates: int
    num_levels: int
    #: Structural digest of the compiled ops this schedule was built
    #: from; doubles as the disk-cache identity.
    digest: str
    #: Groups sorted by ``(level, op, arity)`` — a valid evaluation
    #: order because every fanin lives at a strictly lower level.
    groups: List[LevelGroup]
    #: ``(num_nets,)`` int32 — combinational depth per value-plane row
    #: (sources at 0).  The batched kernel uses it to place fault-site
    #: pinning fixups at level boundaries.
    level_of: np.ndarray
    #: Total fanin slots (sum of every group's ``fanins.size``): the
    #: gather footprint of one full evaluation, in rows.
    total_fanin_slots: int

    def run(self, values: np.ndarray, mask: np.ndarray) -> None:
        """Evaluate every combinational gate in-place on ``values``.

        ``values`` is the ``(num_nets, words)`` plane with source rows
        (PIs, scan cells) already filled and masked; on return every
        gate output row holds its masked value — bit-identical to the
        per-gate loop.
        """
        for grp in self.groups:
            if grp.arity == 1:
                # BUF/NOT and degenerate single-input gates: the gather
                # (a fresh copy, fancy indexing) is the whole reduction.
                acc = values[grp.fanins[:, 0]]
            else:
                acc = _REDUCERS[grp.op].reduce(values[grp.fanins], axis=1)
            acc ^= grp.inv[:, None]
            acc &= mask
            values[grp.out_rows] = acc
        METRICS.incr(
            "soa.gather_bytes", self.total_fanin_slots * values.shape[1] * 8
        )


def structural_digest(compiled) -> str:
    """Content identity of a compiled circuit's combinational structure.

    Two compilations of the same netlist produce the same ops tuple, so
    the digest is stable across processes — it keys the disk tier and
    invalidates naturally whenever the compiled representation changes.
    """
    hasher = hashlib.sha256()
    hasher.update(str(compiled.num_nets).encode())
    hasher.update(repr(compiled._ops).encode())
    return hasher.hexdigest()[:32]


def build_schedule(compiled, digest: Optional[str] = None) -> SoASchedule:
    """Compile the per-gate ops list into a level-group schedule."""
    level_of = compiled.level_of
    buckets: Dict[Tuple[int, int, int], List[Tuple[int, bool, Tuple[int, ...]]]]
    buckets = {}
    for out_idx, op, invert, fanins in compiled._ops:
        key = (int(level_of[out_idx]), op, len(fanins))
        buckets.setdefault(key, []).append((out_idx, invert, fanins))

    groups: List[LevelGroup] = []
    total_slots = 0
    num_gates = 0
    for level, op, arity in sorted(buckets):
        members = buckets[(level, op, arity)]
        out_rows = np.array([m[0] for m in members], dtype=np.int64)
        inv = np.array(
            [_ALL_ONES if m[1] else 0 for m in members], dtype=np.uint64
        )
        fanins = np.array([m[2] for m in members], dtype=np.int64)
        groups.append(LevelGroup(level, op, arity, out_rows, fanins, inv))
        total_slots += fanins.size
        num_gates += len(members)

    schedule = SoASchedule(
        num_nets=compiled.num_nets,
        num_gates=num_gates,
        num_levels=int(level_of.max()) if len(level_of) else 0,
        digest=digest if digest is not None else structural_digest(compiled),
        groups=groups,
        level_of=level_of,
        total_fanin_slots=total_slots,
    )
    METRICS.incr("soa.schedules_built")
    return schedule


def schedule_for(compiled) -> SoASchedule:
    """The (memoized) SoA schedule of a compiled circuit.

    Routed through the standard memory→disk cache
    (:func:`repro.experiments.cache.memoized`, kind ``"soa-schedule"``)
    so one process builds it once and warm service starts load it off
    disk.  The import is deferred: ``repro.experiments`` imports the sim
    stack at module load, so importing it here at module scope would
    cycle.
    """
    digest = structural_digest(compiled)
    from ..experiments import cache

    schedule = cache.memoized(
        "soa-schedule",
        (compiled.netlist.name, digest),
        lambda: build_schedule(compiled, digest),
    )
    METRICS.gauge("soa.levels", schedule.num_levels)
    METRICS.gauge("soa.groups", len(schedule.groups))
    METRICS.gauge("soa.gates", schedule.num_gates)
    return schedule
