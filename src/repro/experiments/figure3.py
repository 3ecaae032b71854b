"""Figure 3: a single-partition worked example on s953.

One stuck-at fault is injected into full-scan s953; one partition of 4
groups is generated with the interval-based method and one with the
random-selection method.  The figure reports the group contents and the
number of suspect failing scan cells each method leaves after observing
the pass/fail of its 4 sessions.  In the paper the fault produces two
failing cells which the interval partition keeps in one group (8 suspects)
while random selection spreads them over two groups (22 suspects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.diagnosis_batch import diagnose_population
from ..core.partitions import Partition
from ..telemetry import span
from .config import ExperimentConfig, default_config
from .runner import (Workload, build_circuit_workload, scheme_partitions,
                     shared_compactor)

CIRCUIT = "s953"
NUM_GROUPS = 4


@dataclass
class Figure3Result:
    failing_cells: List[int]
    interval_groups: List[List[int]]
    random_groups: List[List[int]]
    interval_suspects: int
    random_suspects: int
    num_cells: int

    def render(self) -> str:
        lines = [
            f"Figure 3: single-partition example on {CIRCUIT} "
            f"({self.num_cells} scan cells)",
            f"True failing scan cells: {self.failing_cells}",
            "",
            "Interval-based partitioning:",
        ]
        for g, members in enumerate(self.interval_groups):
            span = f"{members[0]}-{members[-1]}" if members else "(empty)"
            lines.append(f"  Group {g + 1}: {span}")
        lines.append(f"  No. of suspect failing scan cells: {self.interval_suspects}")
        lines.append("")
        lines.append("Random-selection partitioning:")
        for g, members in enumerate(self.random_groups):
            lines.append(f"  Group {g + 1}: {','.join(map(str, members))}")
        lines.append(f"  No. of suspect failing scan cells: {self.random_suspects}")
        return "\n".join(lines)


def _pick_clustered_fault(workload: Workload) -> int:
    """Index of a response with a small multi-cell failing set, like the
    paper's example (two failing cells)."""
    best = None
    for idx, response in enumerate(workload.responses):
        count = len(response.failing_cells)
        if count < 2:
            continue
        if best is None or count < len(workload.responses[best].failing_cells):
            best = idx
    if best is None:  # all single-cell; take the first detected fault
        for idx, response in enumerate(workload.responses):
            if response.detected:
                return idx
        raise RuntimeError("no detected fault in workload")
    return best


def run_figure3(
    config: Optional[ExperimentConfig] = None, fault_index: Optional[int] = None
) -> Figure3Result:
    config = config or default_config()
    workload = build_circuit_workload(CIRCUIT, config)
    if fault_index is None:
        fault_index = _pick_clustered_fault(workload)
    response = workload.responses[fault_index]
    compactor = shared_compactor(config.misr_width, 1)

    def one_partition(scheme: str) -> Partition:
        return scheme_partitions(
            scheme,
            workload.scan_config.max_length,
            NUM_GROUPS,
            1,
            lfsr_degree=config.lfsr_degree,
        )[0]

    interval_part = one_partition("interval")
    random_part = one_partition("random")
    with span("diagnose", scheme="interval", workload=CIRCUIT):
        [interval_result] = diagnose_population(
            [response], workload.scan_config, [interval_part], compactor
        )
    with span("diagnose", scheme="random", workload=CIRCUIT):
        [random_result] = diagnose_population(
            [response], workload.scan_config, [random_part], compactor
        )
    return Figure3Result(
        failing_cells=sorted(response.failing_cells),
        interval_groups=[
            [int(p) for p in interval_part.members(g)] for g in range(NUM_GROUPS)
        ],
        random_groups=[
            [int(p) for p in random_part.members(g)] for g in range(NUM_GROUPS)
        ],
        interval_suspects=len(interval_result.candidate_cells),
        random_suspects=len(random_result.candidate_cells),
        num_cells=workload.num_cells,
    )
