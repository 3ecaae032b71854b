"""Table 1: diagnostic resolution on s953 vs number of partitions.

The paper applies a 200-pattern BIST session to full-scan s953 with 500
injected stuck-at faults and sweeps the number of partitions from 1 to 8
for the interval-based, random-selection and two-step schemes.  Expected
shape: interval wins at few partitions, random selection catches up and
wins at many, two-step is best (its DR roughly half of random-selection's).

The group count per partition is 4, matching the paper's Figure 3 example
on the same circuit (Table 1 itself does not state it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.diagnosis import dr_by_partition_count
from .config import ExperimentConfig, PAPER_PATTERNS_TABLE1, default_config
from .reporting import render_table
from .runner import build_circuit_workload, evaluate_scheme

CIRCUIT = "s953"
NUM_GROUPS = 4
MAX_PARTITIONS = 8
SCHEMES = ("interval", "random", "two-step")


@dataclass
class Table1Result:
    """DR per scheme per partition count (1..8)."""

    dr: dict  # scheme -> List[float], index k = k+1 partitions
    num_faults: int

    def rows(self) -> List[list]:
        rows = []
        for k in range(MAX_PARTITIONS):
            rows.append(
                [k + 1]
                + [self.dr[scheme][k] for scheme in SCHEMES]
            )
        return rows

    def render(self) -> str:
        return render_table(
            f"Table 1: DR for {CIRCUIT}, varying number of partitions "
            f"({self.num_faults} faults, {PAPER_PATTERNS_TABLE1} patterns, "
            f"{NUM_GROUPS} groups)",
            ["partitions", "DR (interval)", "DR (random)", "DR (two-step)"],
            self.rows(),
        )


def run_table1(config: ExperimentConfig = None) -> Table1Result:
    config = config or default_config()
    workload = build_circuit_workload(
        CIRCUIT, config, num_patterns=PAPER_PATTERNS_TABLE1
    )
    dr: dict = {}
    for scheme in SCHEMES:
        evaluation = evaluate_scheme(
            workload, scheme, MAX_PARTITIONS, NUM_GROUPS, config
        )
        dr[scheme] = dr_by_partition_count(evaluation.results, MAX_PARTITIONS)
    return Table1Result(dr=dr, num_faults=len(workload.responses))
