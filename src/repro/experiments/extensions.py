"""Extension experiments beyond the paper's headline tables.

1. **Failing-vector identification** — the companion scheme of reference
   [4] (interval-based diagnosis on the pattern axis), run with the same
   partitioning machinery.
2. **Scan-chain ordering** — the paper's premise is that structural
   locality shows up as positional clustering; re-stitching the chain in a
   random order destroys the clusters and should erase (only) the interval
   advantage.
3. **Multiple faulty cores** — Section 5 argues the multi-fault case looks
   like the single-fault case with one expanded (or two disjoint)
   segments; inject one fault in each of two cores simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.diagnosis import diagnostic_resolution
from ..core.diagnosis_batch import diagnose_population
from ..core.ordering import random_scan_order, response_span
from ..core.vector_diagnosis import (
    diagnose_vectors_population,
    vector_diagnostic_resolution,
)
from ..sim.faultsim import merge_responses
from ..soc.stitch import build_stitched_soc
from ..soc.testrail import TestRail
from .config import ExperimentConfig, default_config
from .reporting import render_table
from .runner import (build_circuit_workload, build_soc_workloads,
                     scheme_partitions, shared_compactor)


# -- 1. failing-vector identification ----------------------------------------


@dataclass
class VectorDiagnosisExperiment:
    circuit: str
    num_patterns: int
    rows: List[list]  # [scheme, partitions, vector DR]

    def render(self) -> str:
        return render_table(
            f"Extension 1: failing-vector identification ({self.circuit}, "
            f"{self.num_patterns} patterns)",
            ["scheme", "partitions", "vector DR"],
            self.rows,
        )


def run_vector_diagnosis(
    circuit: str = "s5378",
    schemes: Sequence[str] = ("random", "interval", "two-step"),
    num_partitions: int = 6,
    num_groups: int = 8,
    config: Optional[ExperimentConfig] = None,
) -> VectorDiagnosisExperiment:
    config = config or default_config()
    workload = build_circuit_workload(circuit, config)
    compactor = shared_compactor(config.misr_width, workload.scan_config.num_chains)
    rows = []
    for scheme in schemes:
        partitions = scheme_partitions(
            scheme,
            workload.num_patterns,
            num_groups,
            num_partitions,
            lfsr_degree=config.lfsr_degree,
        )
        results = diagnose_vectors_population(
            workload.responses, workload.scan_config, partitions, compactor
        )
        rows.append([scheme, num_partitions, vector_diagnostic_resolution(results)])
    return VectorDiagnosisExperiment(circuit, workload.num_patterns, rows)


# -- 2. scan-chain ordering ----------------------------------------------------


@dataclass
class ScanOrderExperiment:
    circuit: str
    rows: List[list]  # [ordering, mean span, DR interval, DR random]

    def render(self) -> str:
        return render_table(
            f"Extension 2: scan-chain ordering vs clustering ({self.circuit})",
            ["ordering", "mean failing span", "DR interval", "DR random"],
            self.rows,
        )


def run_scan_order_ablation(
    circuit: str = "s5378",
    num_partitions: int = 4,
    num_groups: int = 16,
    config: Optional[ExperimentConfig] = None,
) -> ScanOrderExperiment:
    config = config or default_config()
    workload = build_circuit_workload(circuit, config)
    orders = {
        "structural": workload.scan_config,
        "random": random_scan_order(
            workload.scan_config, np.random.default_rng(config.fault_seed)
        ),
    }
    compactor = shared_compactor(config.misr_width, 1)
    rows = []
    for label, scan_config in orders.items():
        spans = [
            response_span(response, scan_config)
            for response in workload.responses
            if response.detected
        ]
        drs = []
        for scheme in ("interval", "random"):
            partitions = scheme_partitions(
                scheme,
                scan_config.max_length,
                num_groups,
                num_partitions,
                lfsr_degree=config.lfsr_degree,
            )
            results = diagnose_population(
                workload.responses, scan_config, partitions, compactor
            )
            drs.append(diagnostic_resolution(results))
        rows.append([label, float(np.mean(spans)), drs[0], drs[1]])
    return ScanOrderExperiment(circuit, rows)


# -- 3. diagnosis time (cycle-domain Figure 5) --------------------------------


@dataclass
class DiagnosisTimeExperiment:
    soc_name: str
    target_dr: float
    rows: List[list]  # [core, cycles random, cycles two-step, ms two-step]

    def render(self) -> str:
        return render_table(
            f"Extension 4: tester cycles to reach DR <= {self.target_dr} "
            f"({self.soc_name}, 50 MHz test clock)",
            ["failing core", "random (Mcycles)", "two-step (Mcycles)",
             "two-step (ms)"],
            self.rows,
        )


def run_diagnosis_time(
    soc: Optional[TestRail] = None,
    target_dr: float = 0.5,
    max_partitions: int = 24,
    num_groups: int = 32,
    config: Optional[ExperimentConfig] = None,
) -> DiagnosisTimeExperiment:
    """Figure 5 in the cycle domain: the tester time each scheme spends to
    reach the target resolution, per failing core."""
    from ..core.time_model import TimeEstimate, cycles_to_reach_dr

    config = config or default_config()
    soc = soc or build_stitched_soc(
        num_patterns=config.num_patterns, scale=config.scale
    )
    workloads = build_soc_workloads(soc, config)
    compactor = shared_compactor(config.misr_width, soc.scan_config.num_chains)
    rows = []
    for core in soc.cores:
        workload = workloads[core.name]
        cycles = {}
        for scheme in ("random", "two-step"):
            partitions = scheme_partitions(
                scheme,
                soc.scan_config.max_length,
                num_groups,
                max_partitions,
                lfsr_degree=config.lfsr_degree,
            )
            results = diagnose_population(
                workload.responses, soc.scan_config, partitions, compactor
            )
            cycles[scheme] = cycles_to_reach_dr(
                results,
                target_dr,
                num_groups,
                soc.scan_config,
                workload.num_patterns,
                max_partitions,
            )
        two_step_ms = (
            TimeEstimate(cycles["two-step"]).seconds * 1e3
            if cycles["two-step"] is not None
            else None
        )
        rows.append(
            [
                core.name,
                None if cycles["random"] is None else cycles["random"] / 1e6,
                None if cycles["two-step"] is None else cycles["two-step"] / 1e6,
                two_step_ms,
            ]
        )
    return DiagnosisTimeExperiment(soc.name, target_dr, rows)


# -- 4b. bypass schedule diagnosis ---------------------------------------------


@dataclass
class ScheduleExperiment:
    soc_name: str
    num_phases: int
    rows: List[list]  # [failing core, faults, DR]

    def render(self) -> str:
        return render_table(
            f"Extension 5: diagnosis under the bypass schedule "
            f"({self.soc_name}, {self.num_phases} phases, two-step)",
            ["failing core", "faults", "DR"],
            self.rows,
        )


def run_schedule_diagnosis(
    num_groups: int = 8,
    num_partitions: int = 8,
    config: Optional[ExperimentConfig] = None,
) -> ScheduleExperiment:
    """Diagnose faults through the full daisy-chain schedule of the
    embedded d695 description: per-core pattern budgets, cores bypassed as
    they run out of patterns, per-phase partitions, candidates unioned
    across phases (see :mod:`repro.soc.schedule`)."""
    from ..soc.schedule import TestSchedule, diagnose_schedule
    from ..soc.socfile import build_testrail_from_description, d695_description

    config = config or default_config()
    soc, budgets = build_testrail_from_description(
        d695_description(), tam_width=8, scale=config.scale
    )
    schedule = TestSchedule(soc, budgets)
    rows = []
    for core_index, core in enumerate(soc.cores):
        budget = budgets[core.name]
        rng = np.random.default_rng(config.fault_seed ^ core_index)
        local = core.sample_fault_responses(
            max(4, config.faults_for(core.name) // 4), rng
        )
        clipped = [
            _clip_to_budget(soc.lift_response(core_index, response), budget)
            for response in local
        ]
        results = diagnose_schedule(
            [response for response in clipped if response.detected],
            schedule,
            scheme="two-step",
            num_partitions=num_partitions,
            num_groups=num_groups,
            misr_width=config.misr_width,
            lfsr_degree=config.lfsr_degree,
        )
        rows.append([core.name, len(results),
                     diagnostic_resolution(results) if results else None])
    return ScheduleExperiment(soc.name, len(schedule.phases), rows)


def _clip_to_budget(response, budget: int):
    """Drop error bits at patterns the schedule never applies to the core."""
    from ..sim.bitops import pattern_mask
    from ..sim.faultsim import FaultResponse

    mask = pattern_mask(min(budget, response.num_patterns))
    clipped = {}
    for cell, vec in response.cell_errors.items():
        new_vec = vec.copy()
        new_vec[: len(mask)] &= mask
        new_vec[len(mask):] = 0
        if new_vec.any():
            clipped[cell] = new_vec
    return FaultResponse(response.fault, clipped, response.num_patterns)


# -- 6. multiple faulty cores ---------------------------------------------------


@dataclass
class MultiCoreExperiment:
    soc_name: str
    core_pair: Tuple[str, str]
    rows: List[list]  # [scheme, DR]

    def render(self) -> str:
        return render_table(
            f"Extension 3: two faulty cores ({self.soc_name}: "
            f"{self.core_pair[0]} + {self.core_pair[1]})",
            ["scheme", "DR"],
            self.rows,
        )


def run_multi_core(
    soc: Optional[TestRail] = None,
    core_pair: Tuple[str, str] = ("s9234", "s15850"),
    num_partitions: int = 8,
    num_groups: int = 32,
    config: Optional[ExperimentConfig] = None,
) -> MultiCoreExperiment:
    config = config or default_config()
    soc = soc or build_stitched_soc(
        num_patterns=config.num_patterns, scale=config.scale
    )
    workloads = build_soc_workloads(soc, config)
    first, second = (workloads[name] for name in core_pair)
    pair_count = min(len(first.responses), len(second.responses))
    merged = [
        merge_responses([first.responses[i], second.responses[i]])
        for i in range(pair_count)
    ]
    compactor = shared_compactor(config.misr_width, soc.scan_config.num_chains)
    detected = [response for response in merged if response.detected]
    rows = []
    for scheme in ("random", "two-step"):
        partitions = scheme_partitions(
            scheme,
            soc.scan_config.max_length,
            num_groups,
            num_partitions,
            lfsr_degree=config.lfsr_degree,
        )
        results = diagnose_population(
            detected, soc.scan_config, partitions, compactor
        )
        rows.append([scheme, diagnostic_resolution(results)])
    return MultiCoreExperiment(soc.name, core_pair, rows)
