"""Per-gate reference kernels: the loops the level-group SoA kernel
replaced.

:meth:`CompiledCircuit.simulate` and
:func:`repro.sim.faultsim_batch.simulate_batch` evaluate whole level
groups at once.  The functions here walk the compiled ops one gate at a
time instead — slow, but simple enough to trust — so the equivalence
tests (and ``scripts/bench.py``'s speedup ratios) can hold the
production kernels against them bit for bit.
"""

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.bitops import num_words, pattern_mask
from repro.sim.faults import Fault
from repro.sim.faultsim_batch import (
    DEFAULT_BATCH,
    _seed_lanes,
    _union_cone,
    plan_batches,
)
from repro.sim.logicsim import _OP_AND, _OP_OR, _OP_XOR, SimResult, _combine


def simulate_pergate(compiled, pi_values, ff_values, num_patterns) -> SimResult:
    """Good-machine simulation, one compiled op at a time."""
    words = num_words(num_patterns)
    mask = pattern_mask(num_patterns)
    values = np.zeros((compiled.num_nets, words), dtype=np.uint64)
    values[compiled.pi_rows] = pi_values & mask
    values[compiled.ff_rows] = ff_values & mask
    for out_idx, op, invert, fanins in compiled._ops:
        values[out_idx] = _combine(
            [values[src] for src in fanins], op, invert, mask
        )
    return SimResult(compiled, values, num_patterns)


def simulate_batch_pergate(simulator, faults: Sequence[Fault]):
    """One fault batch through a per-gate replay of the union cone."""
    compiled = simulator.compiled
    good = simulator.good.values
    mask = simulator._mask
    words = good.shape[1]
    batch = len(faults)

    seeds, stem_pins, pin_pins = _seed_lanes(simulator, faults)

    # Per-net (batch, words) value blocks; nets absent from the map hold
    # their fault-free value in every lane.
    vals: Dict[int, np.ndarray] = {}
    for lane, (site_idx, seeded) in enumerate(seeds):
        block = vals.get(site_idx)
        if block is None:
            block = np.empty((batch, words), dtype=np.uint64)
            block[:] = good[site_idx]
            vals[site_idx] = block
        block[lane] = seeded

    # Net indices are topological, so the sorted union cone is a valid
    # evaluation schedule.
    for out_idx in sorted(_union_cone(simulator, (site for site, _ in seeds))):
        _out, op, invert, fanins = compiled.gate_op(out_idx)
        block = _combine_batch(
            [vals[src] if src in vals else good[src] for src in fanins],
            op, invert, mask, batch, words,
        )
        # Re-pin fault sites that sit inside another lane's cone.
        for lane, stuck_vec in stem_pins.get(out_idx, ()):
            block[lane] = stuck_vec
        for lane, fanin_pos, stuck_vec in pin_pins.get(out_idx, ()):
            lane_ops = [
                stuck_vec if pos == fanin_pos
                else (vals[src][lane] if src in vals else good[src])
                for pos, src in enumerate(fanins)
            ]
            block[lane] = _combine(lane_ops, op, invert, mask)
        vals[out_idx] = block

    # Collect captured errors at scan cells, per lane.
    capture_cells = simulator._capture_cells
    per_lane: List[Dict[int, np.ndarray]] = [{} for _ in range(batch)]
    for net_idx, block in vals.items():
        cells = capture_cells.get(net_idx)
        if not cells:
            continue
        diff = (block ^ good[net_idx]) & mask
        for lane in np.nonzero(diff.any(axis=1))[0]:
            for cell_pos in cells:
                per_lane[int(lane)][cell_pos] = diff[lane].copy()
    return [
        simulator._response(fault, per_lane[lane])
        for lane, fault in enumerate(faults)
    ]


def simulate_faults_pergate(simulator, faults: Sequence[Fault]):
    """A population through the same batch plan as
    :func:`repro.sim.faultsim_batch.simulate_faults_batched`, each batch
    replayed per gate; results in input order."""
    faults = list(faults)
    out: List[Optional[object]] = [None] * len(faults)
    for indices in plan_batches(simulator, faults, DEFAULT_BATCH):
        responses = simulate_batch_pergate(
            simulator, [faults[i] for i in indices]
        )
        for i, response in zip(indices, responses):
            out[i] = response
    return out


def _combine_batch(operands, op, invert, mask, batch, words) -> np.ndarray:
    """:func:`repro.sim.logicsim._combine` over a ``(batch, words)``
    block.  Operands may be 1-D fault-free vectors (broadcast over lanes)
    or per-lane 2-D blocks; the result is always a fresh 2-D block."""
    acc = np.empty((batch, words), dtype=np.uint64)
    acc[:] = operands[0]
    if op == _OP_AND:
        for other in operands[1:]:
            acc &= other
    elif op == _OP_OR:
        for other in operands[1:]:
            acc |= other
    elif op == _OP_XOR:
        for other in operands[1:]:
            acc ^= other
    # _OP_BUF: single operand, nothing to combine.
    if invert:
        np.invert(acc, out=acc)
    acc &= mask
    return acc
