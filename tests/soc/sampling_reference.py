"""Fault sampling over a fully built fault list.

Test-only reference for the index-based samplers: the collapsed universe
is materialised as a list of :class:`Fault` objects and shuffled or drawn
from directly, as the samplers did before the universe became lazy.
Runtime code must not import this module.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.sim.faults import Fault, collapse_faults
from repro.sim.faultsim import FaultResponse
from repro.soc.core_wrapper import _SAMPLE_SLAB_MIN


def shuffled_fault_responses(
    core, count: int, rng: np.random.Generator, detected_only: bool = True
) -> List[FaultResponse]:
    """``EmbeddedCore.sample_fault_responses`` over a shuffled fault list."""
    universe = collapse_faults(core.netlist)
    rng.shuffle(universe)
    responses: List[FaultResponse] = []
    pos = 0
    while pos < len(universe) and len(responses) < count:
        need = count - len(responses)
        slab = universe[pos:pos + max(need, _SAMPLE_SLAB_MIN)]
        pos += len(slab)
        for response in core.fault_simulator.simulate_faults(slab):
            if detected_only and not response.detected:
                continue
            responses.append(response)
            if len(responses) >= count:
                break
    return responses


def shuffled_prefix(faults: List[Fault], count: int,
                    rng: np.random.Generator) -> List[Fault]:
    """The first ``count`` faults of a shuffled copy of ``faults``."""
    faults = list(faults)
    rng.shuffle(faults)
    return faults[:count]


def chosen_subset(faults: List[Fault], count: int,
                  rng: np.random.Generator) -> List[Fault]:
    """``count`` faults drawn without replacement, in list order."""
    faults = list(faults)
    if len(faults) <= count:
        return faults
    idx = rng.choice(len(faults), size=count, replace=False)
    return [faults[i] for i in sorted(idx)]
