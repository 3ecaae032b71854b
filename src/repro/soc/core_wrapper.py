"""Embedded core wrapper: a reusable module with internal scan cells.

In the paper's SOC scenario each core is a full-scan ISCAS-89 circuit whose
internal scan chain segments are threaded onto SOC-level meta scan chains
(TestRail daisy-chain architecture [10]).  The wrapper owns the core's
compiled circuit and pattern set and produces fault responses in *local*
cell coordinates; the :class:`repro.soc.testrail.TestRail` maps those onto
the meta chains.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional

import numpy as np

from ..bist.patterns import fast_pattern_matrices
from ..circuit.netlist import Netlist
from ..sim.faults import CollapsedFaults
from ..sim.faultsim import FaultResponse, FaultSimulator
from ..sim.logicsim import CompiledCircuit, SimResult

#: Pattern seed every SOC builder uses unless told otherwise; the core's
#: own stream is seeded with it XOR a hash of the core's name.
DEFAULT_PATTERN_SEED = 0xACE1

#: Smallest fault slab worth handing to ``simulate_faults`` while sampling
#: for detected faults — keeps the batched kernel fed near the tail.
_SAMPLE_SLAB_MIN = 32


class EmbeddedCore:
    """One core of the SOC, with its own BIST pattern expansion.

    The TestRail transports one shared pseudo-random stream, but because
    each core's scan segment occupies a fixed slice of the meta chains, the
    values any core receives are statistically independent pseudo-random
    bits; modelling them as a per-core seeded stream is equivalent and lets
    the cores simulate independently.

    Construction is cheap: the compiled circuit, the fault-free (golden)
    simulation and the fault simulator are each built on first use, so a
    core that is only stitched onto a TestRail never compiles.
    """

    def __init__(
        self,
        netlist: Netlist,
        num_patterns: int = 128,
        pattern_seed: int = DEFAULT_PATTERN_SEED,
    ):
        self.netlist = netlist
        self.name = netlist.name
        self.num_patterns = num_patterns
        self.pattern_seed = pattern_seed
        self.num_cells = netlist.num_flip_flops
        self._collapsed: Optional[CollapsedFaults] = None

    @cached_property
    def compiled(self) -> CompiledCircuit:
        return CompiledCircuit(self.netlist)

    @cached_property
    def good(self) -> SimResult:
        """The golden simulation of the core's pattern set."""
        pi_values, ff_values = fast_pattern_matrices(
            self.compiled.num_inputs,
            self.num_cells,
            self.num_patterns,
            seed=self.pattern_seed ^ _name_seed(self.name),
        )
        return self.compiled.simulate(pi_values, ff_values, self.num_patterns)

    @cached_property
    def fault_simulator(self) -> FaultSimulator:
        return FaultSimulator(self.compiled, self.good)

    def collapsed_faults(self) -> CollapsedFaults:
        """The core's collapsed fault universe, indexed lazily."""
        if self._collapsed is None:
            self._collapsed = CollapsedFaults(self.netlist)
        return self._collapsed

    def sample_fault_responses(
        self,
        count: int,
        rng: np.random.Generator,
        detected_only: bool = True,
    ) -> List[FaultResponse]:
        """Inject ``count`` sampled stuck-at faults and return their error
        matrices (local cell ids).  With ``detected_only`` the sample is
        drawn until ``count`` detected faults are found or the collapsed
        list is exhausted — mirroring the paper's "inject 500 single
        stuck-at faults" protocol, where undetected faults contribute
        nothing to DR."""
        simulator = self.fault_simulator
        universe = self.collapsed_faults()
        # The shuffle permutes indices, drawing exactly what shuffling the
        # fault list would; only the faults of simulated slabs are built.
        order = rng.permutation(len(universe))
        responses: List[FaultResponse] = []
        pos = 0
        while pos < len(order) and len(responses) < count:
            # Simulate a slab at a time so the fault-batched kernel
            # serves the sampling loop; selection still follows shuffle
            # order exactly, so the chosen responses are bit-identical to
            # the one-at-a-time loop.  A slab may simulate a few faults
            # past ``count`` — undetected faults make that unavoidable
            # anyway.
            need = count - len(responses)
            slab = [universe[i] for i in order[pos:pos + max(need, _SAMPLE_SLAB_MIN)]]
            pos += len(slab)
            for response in simulator.simulate_faults(slab):
                if detected_only and not response.detected:
                    continue
                responses.append(response)
                if len(responses) >= count:
                    break
        return responses


def _name_seed(name: str) -> int:
    value = 0
    for ch in name:
        value = (value * 131 + ord(ch)) & 0x7FFFFFFF
    return value
