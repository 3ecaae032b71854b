"""Fault-batched, cone-restricted stuck-at simulation.

The event-driven path in :mod:`repro.sim.faultsim` is bit-parallel along
the *pattern* axis (64 patterns per ``uint64`` word) but still walks one
fault at a time through a Python-level event loop.  This module batches
the *fault* axis too: a batch of ``B`` faults is packed along a leading
axis, the union of their static fanout cones is computed once, and every
gate in that cone is re-evaluated with a single numpy op over the whole
``(B, words)`` block — so the per-gate Python overhead is amortized over
the batch instead of paid per fault.

Faults are grouped by cone locality (sorted by the topological index of
their fault site) so batch members share most of their cones and the
union stays tight.  Within a batch each fault occupies one *lane* ``b``
of the block; lanes are completely independent:

* a lane's fault site is seeded with its stuck value (stem faults) or the
  forced-fanin gate output (input-pin faults);
* every other lane holds the fault-free value for that net, so
  re-evaluating a gate outside a lane's own cone reproduces the fault-free
  value exactly (combinational logic is deterministic);
* if a fault site itself appears in the union cone (because it lies
  inside *another* lane's cone), a per-lane fixup re-forces the stuck
  value after the gate is evaluated, mirroring how the event-driven path
  pins fault sites.

Within a batch the cone is evaluated by the level-group SoA kernel: the
circuit's precompiled :mod:`repro.sim.soa` schedule is restricted to the
union cone and each cone level evaluates as a single numpy op over the
whole ``(lanes, gates, words)`` block — batching the gate axis on top of
the pattern and fault axes.

The result is bit-identical to :meth:`FaultSimulator.simulate_fault` per
fault; the event-driven path is the oracle the equivalence tests hold
this kernel against, and the per-gate cone replay it replaced lives on
as a test-only reference (``tests/sim/pergate_reference.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import METRICS
from .faults import Fault
from .logicsim import _combine
from .soa import _REDUCERS

#: Default faults per batch; chosen so a (batch, words) block stays small
#: enough to live in L1/L2 while amortizing the per-gate Python overhead.
DEFAULT_BATCH = 64


def plan_batches(
    simulator, faults: Sequence[Fault], batch_size: int
) -> List[List[int]]:
    """Group fault indices into cone-local batches.

    Sorting by the topological index of the fault site clusters faults
    whose fanout cones overlap, which keeps each batch's union cone close
    to the largest single member's cone.  The sort is stable, so equal
    sites keep input order and the plan is deterministic.
    """
    net_index = simulator.compiled.net_index
    order = sorted(range(len(faults)), key=lambda i: net_index[faults[i].site])
    return [order[i:i + batch_size] for i in range(0, len(order), batch_size)]


def _seed_lanes(simulator, faults: Sequence[Fault]):
    """Per-lane fault-site seeding.

    Returns ``(seeds, stem_pins, pin_pins)``: one ``(site_idx, seeded
    vector)`` per lane, plus the per-site pinning tables used to re-force
    fault sites that sit inside another lane's cone.
    """
    compiled = simulator.compiled
    good = simulator.good.values
    mask = simulator._mask
    words = good.shape[1]

    stem_pins: Dict[int, List[Tuple[int, np.ndarray]]] = {}
    pin_pins: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
    seeds: List[Tuple[int, np.ndarray]] = []

    zeros = np.zeros(words, dtype=np.uint64)
    for lane, fault in enumerate(faults):
        stuck_vec = mask.copy() if fault.stuck_at == 1 else zeros
        if fault.pin is None:
            site_idx = compiled.net_index[fault.net]
            seeded = stuck_vec
            stem_pins.setdefault(site_idx, []).append((lane, stuck_vec))
        else:
            gate_out, fanin_pos = fault.pin
            site_idx = compiled.net_index[gate_out]
            seeded = compiled.evaluate_net_with_forced_fanin(
                good, site_idx, fanin_pos, stuck_vec, mask
            )
            pin_pins.setdefault(site_idx, []).append((lane, fanin_pos, stuck_vec))
        seeds.append((site_idx, seeded))
    return seeds, stem_pins, pin_pins


def _union_cone(simulator, seed_sites) -> set:
    """Every combinational gate reachable from any fault site."""
    fanout = simulator._fanout
    cone: set = set()
    stack = list(set(seed_sites))
    while stack:
        net_idx = stack.pop()
        for succ in fanout.get(net_idx, ()):
            if succ not in cone:
                cone.add(succ)
                stack.append(succ)
    return cone


def simulate_batch(simulator, faults: Sequence[Fault]) -> List["FaultResponse"]:
    """Error matrices for one batch of faults, aligned with ``faults``.

    Bit-identical to calling ``simulator.simulate_fault`` per fault.
    The circuit's SoA schedule is restricted to the batch's union fanout
    cone and every restricted level group is evaluated as **one** numpy
    op over the whole ``(lanes, gates, words)`` block.  The block is
    laid out rows-leading — ``(rows, lanes · words)`` — so each gather
    and scatter is a leading-axis fancy index over contiguous per-row
    lane planes, exactly the shape of the good-machine kernel with a
    ``lanes``-times wider word axis.  To keep every gather inside the
    block, its rows are the cone gates plus the fault sites plus every
    fanin any cone gate reads; rows outside the cone hold fault-free
    values in all lanes, which is exactly what a fault-free fanin
    carries.  Per-lane fault-site pinning is applied at level boundaries —
    every consumer of a level-``L`` site lives at a level ``> L``, so
    the fixup lands before anyone reads the site.
    """
    compiled = simulator.compiled
    schedule = compiled.soa_schedule()
    good = simulator.good.values
    mask = simulator._mask
    words = good.shape[1]
    batch = len(faults)

    seeds, stem_pins, pin_pins = _seed_lanes(simulator, faults)
    cone = _union_cone(simulator, (site for site, _ in seeds))
    METRICS.incr("faultsim.batches")
    METRICS.observe("faultsim.batch_cone_nets", len(cone))

    # Restrict the schedule to the cone and collect the compact row set:
    # outputs, their fanins, and the seed sites.
    cone_mask = np.zeros(schedule.num_nets, dtype=bool)
    if cone:
        cone_mask[list(cone)] = True
    seed_rows = np.array(sorted({site for site, _ in seeds}), dtype=np.int64)

    restricted: List[Tuple[int, int, int, np.ndarray, np.ndarray, np.ndarray]] = []
    row_parts = [seed_rows]
    slots = 0
    for grp in schedule.groups:
        sel = cone_mask[grp.out_rows]
        if not sel.any():
            continue
        out = grp.out_rows[sel]
        fan = grp.fanins[sel]
        restricted.append((grp.level, grp.op, grp.arity, out, fan, grp.inv[sel]))
        row_parts.append(out)
        row_parts.append(fan.ravel())
        slots += fan.size
    rows = np.unique(np.concatenate(row_parts))
    compact = np.full(schedule.num_nets, -1, dtype=np.int64)
    compact[rows] = np.arange(len(rows), dtype=np.int64)

    # The value block: row r holds net rows[r]'s (lanes, words) plane,
    # flattened — fault-free in every lane, then each lane's fault site
    # seeded.  ``lane_mask`` is the pattern mask tiled across lanes.
    block = np.empty((len(rows), batch, words), dtype=np.uint64)
    block[:] = good[rows][:, None, :]
    for lane, (site_idx, seeded) in enumerate(seeds):
        block[compact[site_idx], lane] = seeded
    flat = block.reshape(len(rows), batch * words)
    lane_mask = np.tile(mask, batch)

    # Fault sites inside the cone get re-evaluated by their own level
    # group; schedule their per-lane re-pinning at that level's boundary.
    pins_by_level: Dict[int, List[int]] = {}
    for site_idx in set(stem_pins) | set(pin_pins):
        if cone_mask[site_idx]:
            pins_by_level.setdefault(
                int(schedule.level_of[site_idx]), []
            ).append(site_idx)

    idx = 0
    while idx < len(restricted):
        level = restricted[idx][0]
        while idx < len(restricted) and restricted[idx][0] == level:
            _level, op, arity, out, fan, inv = restricted[idx]
            idx += 1
            cfan = compact[fan]
            if arity == 1:
                acc = flat[cfan[:, 0]]
            else:
                acc = _REDUCERS[op].reduce(flat[cfan], axis=1)
            acc ^= inv[:, None]
            acc &= lane_mask
            flat[compact[out]] = acc
        for site_idx in pins_by_level.get(level, ()):
            crow = compact[site_idx]
            for lane, stuck_vec in stem_pins.get(site_idx, ()):
                block[crow, lane] = stuck_vec
            for lane, fanin_pos, stuck_vec in pin_pins.get(site_idx, ()):
                _out, op, invert, fanins = compiled.gate_op(site_idx)
                lane_ops = [
                    stuck_vec if pos == fanin_pos else block[compact[src], lane]
                    for pos, src in enumerate(fanins)
                ]
                block[crow, lane] = _combine(lane_ops, op, invert, mask)
    METRICS.incr("soa.gather_bytes", slots * words * 8 * batch)

    # Collect captured errors at scan cells, per lane.  Iteration is
    # sorted so response construction order is deterministic.
    capture_cells = simulator._capture_cells
    per_lane: List[Dict[int, np.ndarray]] = [{} for _ in range(batch)]
    for net_idx in sorted(cone.union(site for site, _ in seeds)):
        cells = capture_cells.get(net_idx)
        if not cells:
            continue
        diff = (block[compact[net_idx]] ^ good[net_idx]) & mask
        for lane in np.nonzero(diff.any(axis=1))[0]:
            row = diff[lane]
            for cell_pos in cells:
                per_lane[int(lane)][cell_pos] = row.copy()
    return [
        simulator._response(fault, per_lane[lane])
        for lane, fault in enumerate(faults)
    ]


def simulate_faults_batched(
    simulator, faults: Sequence[Fault]
) -> List["FaultResponse"]:
    """Fault-batched population simulation, results in input order.

    Batches of :data:`DEFAULT_BATCH` faults are planned deterministically,
    so the responses are bit-identical to the per-fault event-driven loop.
    """
    faults = list(faults)
    batches = plan_batches(simulator, faults, DEFAULT_BATCH)
    out: List[Optional["FaultResponse"]] = [None] * len(faults)
    for indices in batches:
        responses = simulate_batch(simulator, [faults[i] for i in indices])
        for i, response in zip(indices, responses):
            out[i] = response
    return out  # type: ignore[return-value]
