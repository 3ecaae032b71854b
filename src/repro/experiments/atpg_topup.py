"""Extension: deterministic top-up of the pseudo-random BIST session.

The paper's sessions apply 128 pseudo-random patterns; whatever those miss
is random-pattern-resistant.  Production flows top the session up with
stored deterministic patterns.  This experiment measures, per circuit:

* fault coverage of the pseudo-random session alone;
* how many of the missed faults PODEM proves testable (a deterministic
  pattern exists) vs untestable/aborted;
* the combined top-up coverage.

Faults that only reach primary outputs are invisible to the failing-cell
diagnosis (the paper masks POs out of the signature); PODEM observes both,
so its verdicts are an upper bound for the scan path — the table reports
both views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..atpg.podem import atpg_campaign
from ..circuit.library import get_circuit
from ..soc.core_wrapper import EmbeddedCore
from .config import ExperimentConfig, default_config
from .reporting import render_table
from .runner import hash_name


@dataclass
class AtpgTopupRow:
    circuit: str
    faults_sampled: int
    random_coverage: float
    missed: int
    podem_testable: int
    combined_coverage: float


@dataclass
class AtpgTopupResult:
    num_patterns: int
    rows: List[AtpgTopupRow]

    def render(self) -> str:
        return render_table(
            f"Extension 6: deterministic (PODEM) top-up of the "
            f"{self.num_patterns}-pattern BIST session",
            [
                "circuit",
                "faults",
                "random coverage",
                "missed",
                "PODEM-testable",
                "combined coverage",
            ],
            [
                [
                    r.circuit,
                    r.faults_sampled,
                    r.random_coverage,
                    r.missed,
                    r.podem_testable,
                    r.combined_coverage,
                ]
                for r in self.rows
            ],
        )


def run_atpg_topup(
    circuits: Sequence[str] = ("s953",),
    config: Optional[ExperimentConfig] = None,
    backtrack_limit: int = 120,
    max_missed: int = 40,
) -> AtpgTopupResult:
    config = config or default_config()
    rows = []
    for name in circuits:
        core = EmbeddedCore(
            get_circuit(name, scale=config.scale),
            num_patterns=config.num_patterns,
        )
        rng = np.random.default_rng(config.fault_seed ^ hash_name(name))
        universe = core.collapsed_faults()
        order = rng.permutation(len(universe))
        sample = [universe[i] for i in order[: config.faults_for(name) * 2]]
        detected = 0
        missed_faults = []
        for fault in sample:
            if core.fault_simulator.simulate_fault(fault).detected:
                detected += 1
            else:
                missed_faults.append(fault)
        missed_subset = missed_faults[:max_missed]
        _cubes, stats = atpg_campaign(
            core.netlist, missed_subset, backtrack_limit=backtrack_limit
        )
        # Extrapolate the PODEM-testable fraction over all missed faults.
        testable_fraction = (
            stats.detected / len(missed_subset) if missed_subset else 0.0
        )
        recovered = testable_fraction * len(missed_faults)
        rows.append(
            AtpgTopupRow(
                circuit=name,
                faults_sampled=len(sample),
                random_coverage=detected / len(sample),
                missed=len(missed_faults),
                podem_testable=stats.detected,
                combined_coverage=(detected + recovered) / len(sample),
            )
        )
    return AtpgTopupResult(num_patterns=config.num_patterns, rows=rows)
