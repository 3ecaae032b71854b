"""Ablation studies for the design choices DESIGN.md calls out.

1. **Interval partitions in step one** — the paper uses a single interval
   partition "for the sake of simplicity ... even though in some cases more
   interval-based partitions lead to higher diagnostic resolution".  Sweep
   0, 1, 2, 3 interval partitions within a fixed total budget.
2. **Groups per partition** — Section 5's strategy is "more groups on the
   longer meta scan chains".  Sweep the group count on one circuit and
   report DR together with the session cost (groups x partitions).
3. **MISR aliasing** — compare signature-based diagnosis (widths 8/16/24)
   against the exact (alias-free) comparison: candidate-count differences
   and soundness violations.
4. **Deterministic fixed intervals** (Bayraktaroglu & Orailoglu [8]) vs the
   LFSR-drawn intervals of the paper, single partition.
5. **Adaptive binary search** ([6]) — sessions needed for single-position
   resolution vs the sessions the partition schemes spend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.binary_search import binary_search_diagnose
from ..core.diagnosis import diagnostic_resolution
from ..core.diagnosis_batch import diagnose_population
from .config import ExperimentConfig, default_config
from .reporting import render_table
from .runner import (build_circuit_workload, evaluate_scheme,
                     scheme_partitions, shared_compactor)


# -- 1. number of interval partitions in step one ---------------------------


@dataclass
class IntervalCountAblation:
    circuit: str
    num_partitions: int
    dr_by_interval_count: Dict[int, float]

    def render(self) -> str:
        rows = [
            [count, dr] for count, dr in sorted(self.dr_by_interval_count.items())
        ]
        return render_table(
            f"Ablation 1: interval partitions in step one ({self.circuit}, "
            f"{self.num_partitions} total partitions)",
            ["interval partitions", "DR"],
            rows,
        )


def run_interval_count_ablation(
    circuit: str = "s5378",
    counts: Sequence[int] = (0, 1, 2, 3),
    num_partitions: int = 8,
    num_groups: int = 16,
    config: Optional[ExperimentConfig] = None,
) -> IntervalCountAblation:
    config = config or default_config()
    workload = build_circuit_workload(circuit, config)
    dr_by_count = {}
    for count in counts:
        scheme = "random" if count == 0 else "two-step"
        evaluation = evaluate_scheme(
            workload,
            scheme,
            num_partitions,
            num_groups,
            config,
            num_interval_partitions=count,
        )
        dr_by_count[count] = evaluation.dr
    return IntervalCountAblation(circuit, num_partitions, dr_by_count)


# -- 2. groups per partition --------------------------------------------------


@dataclass
class GroupCountAblation:
    circuit: str
    rows: List[list]  # [groups, sessions, dr_random, dr_two_step]

    def render(self) -> str:
        return render_table(
            f"Ablation 2: groups per partition ({self.circuit})",
            ["groups", "sessions", "DR random", "DR two-step"],
            self.rows,
        )


def run_group_count_ablation(
    circuit: str = "s5378",
    group_counts: Sequence[int] = (4, 8, 16, 32),
    num_partitions: int = 8,
    config: Optional[ExperimentConfig] = None,
) -> GroupCountAblation:
    config = config or default_config()
    workload = build_circuit_workload(circuit, config)
    rows = []
    for groups in group_counts:
        random_eval = evaluate_scheme(
            workload, "random", num_partitions, groups, config
        )
        two_step_eval = evaluate_scheme(
            workload, "two-step", num_partitions, groups, config
        )
        rows.append(
            [groups, groups * num_partitions, random_eval.dr, two_step_eval.dr]
        )
    return GroupCountAblation(circuit, rows)


# -- 3. MISR aliasing -----------------------------------------------------------


@dataclass
class AliasingAblation:
    circuit: str
    rows: List[list]  # [mode, dr, soundness_violations]

    def render(self) -> str:
        return render_table(
            f"Ablation 3: MISR aliasing ({self.circuit}, two-step)",
            ["comparison", "DR", "soundness violations"],
            self.rows,
        )


def run_aliasing_ablation(
    circuit: str = "s953",
    widths: Sequence[int] = (8, 16, 24),
    num_partitions: int = 8,
    num_groups: int = 8,
    config: Optional[ExperimentConfig] = None,
) -> AliasingAblation:
    config = config or default_config()
    workload = build_circuit_workload(circuit, config)
    partitions = scheme_partitions(
        "two-step",
        workload.scan_config.max_length,
        num_groups,
        num_partitions,
        lfsr_degree=config.lfsr_degree,
    )
    from ..bist.misr import ParityCompactor

    rows = []
    modes = (
        [("exact", None),
         ("parity", ParityCompactor(workload.scan_config.num_chains))]
        + [
            (f"MISR-{w}", shared_compactor(w, workload.scan_config.num_chains))
            for w in widths
        ]
    )
    for label, compactor in modes:
        results = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor
        )
        violations = sum(1 for r in results if r.detected and not r.sound)
        rows.append([label, diagnostic_resolution(results), violations])
    return AliasingAblation(circuit, rows)


# -- 4. deterministic vs LFSR-drawn intervals --------------------------------


@dataclass
class DeterministicAblation:
    circuit: str
    rows: List[list]  # [scheme, partitions, dr]

    def render(self) -> str:
        return render_table(
            f"Ablation 4: deterministic vs LFSR-drawn intervals ({self.circuit})",
            ["scheme", "partitions", "DR"],
            self.rows,
        )


def run_deterministic_ablation(
    circuit: str = "s953",
    partition_counts: Sequence[int] = (1, 2, 4),
    num_groups: int = 8,
    config: Optional[ExperimentConfig] = None,
) -> DeterministicAblation:
    config = config or default_config()
    workload = build_circuit_workload(circuit, config)
    rows = []
    for scheme in ("interval", "deterministic"):
        for count in partition_counts:
            evaluation = evaluate_scheme(
                workload, scheme, count, num_groups, config
            )
            rows.append([scheme, count, evaluation.dr])
    return DeterministicAblation(circuit, rows)


# -- 5. adaptive binary search session cost ----------------------------------


@dataclass
class BinarySearchAblation:
    circuit: str
    mean_sessions_binary: float
    partition_sessions: int
    dr_two_step: float
    dr_binary: float

    def render(self) -> str:
        return render_table(
            f"Ablation 5: adaptive binary search vs two-step ({self.circuit})",
            [
                "mean sessions (binary)",
                "sessions (two-step)",
                "DR binary",
                "DR two-step",
            ],
            [
                [
                    self.mean_sessions_binary,
                    self.partition_sessions,
                    self.dr_binary,
                    self.dr_two_step,
                ]
            ],
        )


def run_binary_search_ablation(
    circuit: str = "s953",
    num_partitions: int = 8,
    num_groups: int = 8,
    config: Optional[ExperimentConfig] = None,
) -> BinarySearchAblation:
    config = config or default_config()
    workload = build_circuit_workload(circuit, config)
    compactor = shared_compactor(config.misr_width, workload.scan_config.num_chains)
    binary_results = [
        binary_search_diagnose(response, workload.scan_config, compactor)
        for response in workload.responses
    ]
    total_actual = sum(len(r.actual_cells) for r in binary_results)
    total_candidates = sum(len(r.candidate_cells) for r in binary_results)
    dr_binary = (total_candidates - total_actual) / total_actual
    mean_sessions = float(np.mean([r.sessions_used for r in binary_results]))
    two_step_eval = evaluate_scheme(
        workload, "two-step", num_partitions, num_groups, config
    )
    return BinarySearchAblation(
        circuit=circuit,
        mean_sessions_binary=mean_sessions,
        partition_sessions=num_partitions * num_groups,
        dr_two_step=two_step_eval.dr,
        dr_binary=dr_binary,
    )
