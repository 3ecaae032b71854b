"""Deterministic generator of ISCAS-89-like full-scan sequential circuits.

The real ISCAS-89 netlists are not redistributable inside this offline
environment, so the experiments run on synthetic stand-ins with the
*published* PI/PO/DFF/gate counts of each benchmark (see
:mod:`repro.circuit.library`).  The generator is built to preserve the one
structural property every experiment in the paper depends on: **fault cones
reach a localized cluster of scan cells**.

Mechanism
---------
Every signal is assigned a *position* on a 1-D locality axis in ``[0, 1)``
(an abstraction of placement).  Flip-flop ``i`` of ``n`` sits at position
``i / n`` and the default scan order is position order — exactly the
"scan chain ordering follows the circuit structure" dependence the paper
describes in Section 3.

Combinational gates are arranged in a bounded number of *layers* (realistic
logic depth) and draw their fanins from earlier layers at positions near
their own (Gaussian-jittered sampling), so the fanout cone of any net
widens like a short random walk on the axis — it reaches a *cluster* of
nearby scan cells, not a uniform scatter.

Observability is enforced the way synthesized logic behaves: fanin
selection prefers signals that nothing consumes yet, and flip-flop D inputs
/ primary outputs drain the remaining unconsumed gates, so almost every
gate lies on a path to a scan cell or output and a stuck-at fault anywhere
has a sensitizable route to the scan chain.

Everything is seeded: ``generate_circuit(profile, seed)`` is a pure
function of its arguments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .netlist import GateType, Netlist

#: Relative weights of gate types emitted by the generator, approximating
#: the mix found in the ISCAS-89 suite (NAND/NOR-heavy, few XORs).
_GATE_MIX: Sequence[Tuple[GateType, float]] = (
    (GateType.NAND, 0.20),
    (GateType.AND, 0.14),
    (GateType.NOR, 0.10),
    (GateType.OR, 0.10),
    (GateType.NOT, 0.16),
    (GateType.BUF, 0.04),
    (GateType.XOR, 0.16),
    (GateType.XNOR, 0.10),
)

#: Fanin-count distribution for multi-input gates.  Two-input dominated:
#: together with the XOR share this keeps error propagation near-critical,
#: which is what gives real circuits their heavy-tailed failing-cell counts.
_FANIN_COUNTS = (2, 3, 4)
_FANIN_WEIGHTS = (0.62, 0.26, 0.12)

#: Probability that a fanin slot is filled from the not-yet-consumed pool.
_UNUSED_FIRST_PROB = 0.45

#: Probability that a fanin comes from the immediately preceding layer
#: (otherwise a random one of the few layers before it, modelling local
#: reconvergence; layer 0 — the state/input layer — is only reached from
#: the first gate layers, as in synthesized logic).
_PREV_LAYER_PROB = 0.5

#: How far back (in layers) the non-previous-layer fanins may reach.
_LAYER_REACH = 4

#: Fraction of gates that become regional *hubs* — stand-ins for the
#: high-fanout control/enable/select nets of real circuits.  A stuck-at
#: fault on a hub corrupts many scan cells at once, producing the heavy
#: tail of failing-cell counts the paper observes with real fault
#: injection ("some faults may cause a large number of failing scan
#: cells", Section 4).
_HUB_FRACTION = 0.015

#: Probability that a gate replaces one ordinary fanin with the nearest
#: earlier-layer hub.
_HUB_PICK_PROB = 0.28


@dataclass(frozen=True)
class CircuitProfile:
    """Shape of a benchmark circuit: the published ISCAS-89 counts."""

    name: str
    num_inputs: int
    num_outputs: int
    num_flip_flops: int
    num_gates: int
    #: Width (std-dev on the unit locality axis) of fanin selection.  Smaller
    #: values give tighter fault-cone clusters.
    locality: float = 0.03
    #: Combinational depth (number of gate layers).
    depth: int = 12

    def scaled(self, factor: float) -> "CircuitProfile":
        """A reduced-size variant (used by fast tests), preserving ratios."""
        return CircuitProfile(
            name=self.name,
            num_inputs=max(2, round(self.num_inputs * factor)),
            num_outputs=max(1, round(self.num_outputs * factor)),
            num_flip_flops=max(3, round(self.num_flip_flops * factor)),
            num_gates=max(8, round(self.num_gates * factor)),
            locality=self.locality,
            depth=max(3, min(self.depth, round(self.num_gates * factor) // 3)),
        )


class _LayerPool:
    """The signals of one closed layer, sorted by locality position.

    Built once, when the layer's last signal has been added: a layer is
    only read by gates of later layers (or after every gate exists), so
    its pool never changes shape afterwards.  The same sorted arrays serve
    as the layer's *all* pool (read-only) and its *unused* pool, whose
    consumed entries are marked removed: ``_right[i]`` / ``_left[i + 1]``
    link a removed entry ``i`` past itself to its live neighbours
    (union-find with path halving), so a nearest-live lookup is two short
    pointer walks next to one ``bisect``.

    Entries at equal positions keep the order repeated ``bisect_left``
    insertion gives them: the later-added entry first.
    """

    __slots__ = ("positions", "names", "live", "_right", "_left")

    def __init__(self, positions: List[float], names: List[str]):
        # Stable sort of the reversed insertion order: ties stay later-first.
        order = sorted(range(len(positions) - 1, -1, -1), key=positions.__getitem__)
        self.positions = [positions[i] for i in order]
        self.names = [names[i] for i in order]
        #: Number of entries not yet consumed (the unused pool's length).
        self.live = len(order)
        # Following _right from i ends at the first live entry >= i (or at
        # len: none); following _left from i ends at one past the last live
        # entry < i (or at 0: none).
        self._right = list(range(len(order) + 1))
        self._left = list(range(len(order) + 1))

    def nearest(self, position: float) -> int:
        """Index of the entry nearest ``position`` (ties go left)."""
        positions = self.positions
        idx = bisect_left(positions, position)
        if idx == 0:
            return 0
        if idx == len(positions):
            return idx - 1
        closer_right = positions[idx] - position < position - positions[idx - 1]
        return idx if closer_right else idx - 1

    def nearest_live(self, position: float) -> int:
        """Index of the live entry nearest ``position`` (ties go left);
        the pool must have a live entry."""
        positions = self.positions
        idx = bisect_left(positions, position)
        right = self._right
        hi = idx
        while right[hi] != hi:
            right[hi] = right[right[hi]]
            hi = right[hi]
        left = self._left
        lo = idx
        while left[lo] != lo:
            left[lo] = left[left[lo]]
            lo = left[lo]
        if lo == 0:
            return hi
        lo -= 1
        if hi == len(positions):
            return lo
        closer_right = positions[hi] - position < position - positions[lo]
        return hi if closer_right else lo

    def remove(self, idx: int) -> str:
        """Consume live entry ``idx`` and return its name."""
        self._right[idx] = idx + 1
        self._left[idx + 1] = idx
        self.live -= 1
        return self.names[idx]


class _LayeredSelector:
    """Per-layer signal pools with locality-aware, unused-first selection.

    Layer 0 holds the combinational sources (primary inputs and flip-flop
    outputs); layers 1..depth hold gate outputs.  :meth:`close_layer`
    freezes a finished layer into a :class:`_LayerPool` and merges the hubs
    added meanwhile into the one sorted pool :meth:`nearest_hub` searches.
    """

    def __init__(self, locality: float, rng: np.random.Generator):
        self.locality = locality
        self._draws = (rng.random, rng.integers, rng.normal)
        self.layers: List[_LayerPool] = []
        self._open_hubs: List[Tuple[float, int, str]] = []
        #: Hubs of every closed layer as (position, layer, name), sorted.
        self._hubs: List[Tuple[float, int, str]] = []
        self._hub_positions: List[float] = []

    def add_hub(self, name: str, position: float) -> None:
        self._open_hubs.append((position, len(self.layers), name))

    def close_layer(self, positions: List[float], names: List[str]) -> None:
        """Add the next layer, whose signals are ``names`` at ``positions``
        (in insertion order)."""
        self.layers.append(_LayerPool(positions, names))
        if self._open_hubs:
            self._hubs = sorted(self._hubs + self._open_hubs, key=itemgetter(0))
            self._hub_positions = [hub[0] for hub in self._hubs]
            self._open_hubs = []

    def nearest_hub(self, anchor: float, window: float) -> Optional[str]:
        """Nearest hub of any closed (earlier) layer within ``window``.

        An exact distance tie between the hubs either side of ``anchor``
        goes to the later layer, then to the left one — what a per-layer
        nearest search keeping the last best at ``<=`` would pick.
        """
        positions = self._hub_positions
        if not positions:
            return None
        idx = bisect_left(positions, anchor)
        if idx == 0:
            best = 0
        elif idx == len(positions):
            best = idx - 1
        else:
            left_dist = anchor - positions[idx - 1]
            right_dist = positions[idx] - anchor
            if right_dist < left_dist or (
                right_dist == left_dist and self._hubs[idx][1] > self._hubs[idx - 1][1]
            ):
                best = idx
            else:
                best = idx - 1
        if abs(positions[best] - anchor) <= window:
            return self._hubs[best][2]
        return None

    def pick(self, anchor: float, count: int, gate_layer: int) -> List[str]:
        """``count`` distinct fanins near ``anchor`` from layers before
        ``gate_layer``."""
        rng_random, rng_integers, rng_normal = self._draws
        locality = self.locality
        layers = self.layers
        near = 4.0 * locality
        window = 2.0 * locality
        window_lo = anchor - window
        window_hi = anchor + window
        prev_layer = gate_layer - 1
        reach_low = max(0, prev_layer - _LAYER_REACH)
        chosen: List[str] = []
        for _attempt in range(40 * count):
            if len(chosen) == count:
                break
            # Source layer: the previous one, else a random recent one.
            if gate_layer == 1 or rng_random() < _PREV_LAYER_PROB:
                pool = layers[prev_layer]
            else:
                pool = layers[int(rng_integers(reach_low, prev_layer))]
            if not pool.positions:
                pool = layers[0]
            target = anchor + rng_normal(0.0, locality)
            if target < 0.0:
                target = 0.0
            elif target > 0.999999:
                target = 0.999999
            name: Optional[str] = None
            if pool.live and rng_random() < _UNUSED_FIRST_PROB:
                idx = pool.nearest_live(target)
                if abs(pool.positions[idx] - anchor) <= near:
                    name = pool.remove(idx)
                # else too far: keep it for a local consumer
            if name is None:
                # A uniformly random signal within anchor ± window spreads
                # fanout across all local signals, giving the heavy-ish
                # fanout distribution real netlists have (nearest-only
                # selection would concentrate it on a handful).
                positions = pool.positions
                lo = bisect_left(positions, window_lo)
                hi = bisect_left(positions, window_hi, lo)
                if hi > lo:
                    name = pool.names[rng_integers(lo, hi)]
                else:
                    name = pool.names[pool.nearest(target)]
            if name not in chosen:
                chosen.append(name)
        # Degenerate small pools: widen the search on layer 0.
        widen = locality
        while len(chosen) < count:
            widen *= 2.0
            target = min(max(anchor + rng_normal(0.0, widen), 0.0), 0.999999)
            name = layers[0].names[layers[0].nearest(target)]
            if name not in chosen:
                chosen.append(name)
            if widen > 8.0:
                break  # pool smaller than the fanin count; accept fewer
        return chosen

    def pop_unused_near(self, position: float, window: float) -> Optional[str]:
        """Consume and return an unconsumed gate output within ``window``
        of ``position``, searching deep layers first."""
        for pool in reversed(self.layers[1:]):
            if not pool.live:
                continue
            idx = pool.nearest_live(position)
            if abs(pool.positions[idx] - position) <= window:
                return pool.remove(idx)
        return None


def generate_circuit(
    profile: CircuitProfile,
    seed: int = 0,
    name: Optional[str] = None,
) -> Netlist:
    """Generate a full-scan sequential circuit matching ``profile``.

    The result validates, is loop-free in its combinational core, and has a
    default scan order (DFF insertion order) that follows the locality axis.
    Both hold by construction (every fanin is an earlier layer's signal, and
    every D input and output an existing gate), so the netlist is not
    ordered here: its one ordering pass is the first consumer's, such as
    :class:`~repro.sim.logicsim.CompiledCircuit`, which rejects loops.
    """
    rng = np.random.default_rng(seed ^ _stable_hash(profile.name))
    netlist = Netlist(name or profile.name)
    depth = max(1, min(profile.depth, profile.num_gates))
    selector = _LayeredSelector(profile.locality, rng)
    locality = profile.locality

    n_ff = profile.num_flip_flops
    # Primary inputs, spread over the axis (layer 0 sources).
    pi_positions = rng.random(profile.num_inputs).tolist()
    pi_nets = [f"PI{i}" for i in range(profile.num_inputs)]
    for net in pi_nets:
        netlist.add_input(net)

    # Flip-flop outputs enter layer 0 too; their D inputs are wired after
    # the combinational logic exists.  Position i/n defines scan order.
    ff_positions = [(i + 0.5) / n_ff for i in range(n_ff)]
    ff_nets = [f"FF{i}" for i in range(n_ff)]
    selector.close_layer(pi_positions + ff_positions, pi_nets + ff_nets)

    # Combinational gates, layer by layer (forward edges only).
    gate_types = [t for t, _w in _GATE_MIX]
    gate_weights = np.array([w for _t, w in _GATE_MIX])
    gate_weights = gate_weights / gate_weights.sum()
    num_gates = profile.num_gates
    type_draws = rng.choice(len(gate_types), size=num_gates, p=gate_weights).tolist()
    fanin_draws = rng.choice(
        _FANIN_COUNTS, size=num_gates, p=np.array(_FANIN_WEIGHTS)
    ).tolist()
    anchors = rng.random(num_gates).tolist()
    rng_random = rng.random
    hub_window = 3.0 * locality
    unary = [gtype in (GateType.NOT, GateType.BUF) for gtype in gate_types]
    gate_nets = [f"G{g}" for g in range(num_gates)]
    add_gate = netlist.add_gate
    pick = selector.pick
    layer, layer_start = 1, 0
    for g in range(num_gates):
        gate_layer = 1 + (g * depth) // num_gates
        if gate_layer != layer:
            selector.close_layer(anchors[layer_start:g], gate_nets[layer_start:g])
            layer, layer_start = gate_layer, g
        kind = type_draws[g]
        anchor = anchors[g]
        count = 1 if unary[kind] else fanin_draws[g]
        fanins = pick(anchor, count, layer)
        if count >= 2 and rng_random() < _HUB_PICK_PROB:
            hub = selector.nearest_hub(anchor, hub_window)
            if hub is not None and hub not in fanins:
                fanins[-1] = hub
        add_gate(gate_nets[g], gate_types[kind], fanins)
        if rng_random() < _HUB_FRACTION:
            selector.add_hub(gate_nets[g], anchor)
    selector.close_layer(anchors[layer_start:], gate_nets[layer_start:])

    # All gate outputs, for nearest-fallback sinks.
    gate_pool = _LayerPool(anchors, gate_nets)

    # Flip-flop D inputs: prefer a still-unconsumed gate near the cell's
    # position (deep local logic), falling back to the nearest gate.
    for ff_net, pos in zip(ff_nets, ff_positions):
        jitter = float(rng.normal(0.0, locality / 2.0))
        target = min(max(pos + jitter, 0.0), 0.999999)
        d_net = selector.pop_unused_near(target, hub_window)
        if d_net is None:
            d_net = gate_pool.names[gate_pool.nearest(target)]
        netlist.add_dff(ff_net, d_net)

    # Primary outputs drain remaining unconsumed gates spread over the axis.
    seen_po: set = set()
    for i, pos in enumerate(rng.random(profile.num_outputs).tolist()):
        net = selector.pop_unused_near(pos, 0.5)
        if net is None:
            net = gate_pool.names[gate_pool.nearest(pos)]
        if net in seen_po:
            buf = f"PO{i}_BUF"
            netlist.add_gate(buf, GateType.BUF, [net])
            net = buf
        seen_po.add(net)
        netlist.add_output(net)
    return netlist


def _stable_hash(text: str) -> int:
    """Deterministic 63-bit hash of a string (``hash()`` is salted)."""
    value = 1469598103934665603  # FNV-1a
    for byte in text.encode():
        value ^= byte
        value = (value * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return value
