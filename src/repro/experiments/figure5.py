"""Figure 5: partitions required to reach DR = 0.5 on the stitched SOC.

For each failing core of SOC 1 (single meta scan chain), sweep the number
of partitions and report the smallest count whose DR (without pruning)
drops to 0.5 or below, for random selection and for two-step.  Expected
shape: two-step always needs fewer partitions — i.e. shorter diagnosis
time — than random selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.diagnosis import partitions_to_reach_dr
from ..core.diagnosis_batch import diagnose_population
from ..soc.stitch import build_stitched_soc
from ..soc.testrail import TestRail
from ..telemetry import METRICS, span
from .config import ExperimentConfig, default_config
from .reporting import render_table
from .runner import build_soc_workloads, scheme_partitions, shared_compactor
from .soc_tables import SOC1_GROUPS

TARGET_DR = 0.5
MAX_PARTITIONS = 24
SCHEMES = ("random", "two-step")


@dataclass
class Figure5Result:
    #: core name -> scheme -> partitions needed (None = not reached)
    partitions_needed: Dict[str, Dict[str, Optional[int]]]

    def render(self) -> str:
        rows = []
        for core, by_scheme in self.partitions_needed.items():
            rows.append(
                [
                    core,
                    by_scheme["random"],
                    by_scheme["two-step"],
                ]
            )
        return render_table(
            f"Figure 5: partitions to reach DR <= {TARGET_DR} "
            f"(SOC 1, single scan chain, {SOC1_GROUPS} groups, "
            f"cap {MAX_PARTITIONS})",
            ["failing core", "random", "two-step"],
            rows,
        )


def run_figure5(
    config: Optional[ExperimentConfig] = None,
    soc: Optional[TestRail] = None,
    max_partitions: int = MAX_PARTITIONS,
) -> Figure5Result:
    config = config or default_config()
    soc = soc or build_stitched_soc(
        num_patterns=config.num_patterns, scale=config.scale
    )
    workloads = build_soc_workloads(soc, config)
    compactor = shared_compactor(config.misr_width, soc.scan_config.num_chains)
    needed: Dict[str, Dict[str, Optional[int]]] = {}
    for core in soc.cores:
        workload = workloads[core.name]
        needed[core.name] = {}
        for scheme in SCHEMES:
            partitions = scheme_partitions(
                scheme,
                workload.scan_config.max_length,
                SOC1_GROUPS,
                max_partitions,
                lfsr_degree=config.lfsr_degree,
            )
            with span("diagnose", scheme=scheme, workload=workload.name) as sp:
                responses = workload.responses
                results = diagnose_population(
                    responses, workload.scan_config, partitions, compactor
                )
                sp.add("faults", len(results))
                METRICS.incr("diagnosis.faults", len(results))
            with span("dr.score", scheme=scheme, workload=workload.name):
                needed[core.name][scheme] = partitions_to_reach_dr(
                    results, TARGET_DR, max_partitions
                )
    return Figure5Result(partitions_needed=needed)
