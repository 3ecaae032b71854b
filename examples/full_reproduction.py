#!/usr/bin/env python
"""Full paper-scale reproduction: every table and figure, 500 faults each.

This is the configuration of the paper's protocol (Sections 4 and 5):
500 injected single stuck-at faults per circuit / per faulty core, 200
patterns for Table 1, 128 patterns elsewhere, a degree-16 LFSR creating
the partitions, 8 partitions for the comparisons.

Expect about 16 s on a 2-vCPU host; no section takes more than about
3 s.  Pass ``--faults N`` to reduce the sample.

Run:  python examples/full_reproduction.py [--faults N] [--out FILE]
"""

import argparse
import sys
import time

from repro.experiments import (
    paper_config,
    run_aliasing_ablation,
    run_binary_search_ablation,
    run_clustering,
    run_deterministic_ablation,
    run_figure3,
    run_figure5,
    run_group_count_ablation,
    run_interval_count_ablation,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.atpg_topup import run_atpg_topup
from repro.experiments.error_model import run_error_model_ablation
from repro.experiments.patterns_ablation import run_pattern_count_ablation
from repro.experiments.extensions import (
    run_diagnosis_time,
    run_multi_core,
    run_scan_order_ablation,
    run_schedule_diagnosis,
    run_vector_diagnosis,
)

EXPERIMENTS = [
    ("Figure 3", lambda cfg: run_figure3(cfg)),
    ("Table 1", lambda cfg: run_table1(cfg)),
    ("Figure 2 evidence (clustering)", lambda cfg: run_clustering(config=cfg)),
    ("Table 2", lambda cfg: run_table2(cfg)),
    ("Table 3", lambda cfg: run_table3(cfg)),
    ("Table 4", lambda cfg: run_table4(cfg)),
    ("Figure 5", lambda cfg: run_figure5(cfg)),
    ("Ablation 1 (interval partitions)",
     lambda cfg: run_interval_count_ablation(config=cfg)),
    ("Ablation 2 (group count)", lambda cfg: run_group_count_ablation(config=cfg)),
    ("Ablation 3 (MISR aliasing)", lambda cfg: run_aliasing_ablation(config=cfg)),
    ("Ablation 4 (deterministic intervals)",
     lambda cfg: run_deterministic_ablation(config=cfg)),
    ("Ablation 5 (binary search)",
     lambda cfg: run_binary_search_ablation(config=cfg)),
    ("Ablation 6 (pattern count)",
     lambda cfg: run_pattern_count_ablation(config=cfg)),
    ("Ablation 7 (evaluation protocol)",
     lambda cfg: run_error_model_ablation(config=cfg)),
    ("Extension 1 (failing vectors)",
     lambda cfg: run_vector_diagnosis(config=cfg)),
    ("Extension 2 (scan-chain ordering)",
     lambda cfg: run_scan_order_ablation(config=cfg)),
    ("Extension 3 (two faulty cores)", lambda cfg: run_multi_core(config=cfg)),
    ("Extension 4 (diagnosis time)",
     lambda cfg: run_diagnosis_time(config=cfg)),
    ("Extension 5 (bypass schedule)",
     lambda cfg: run_schedule_diagnosis(config=cfg)),
    ("Extension 6 (PODEM top-up)", lambda cfg: run_atpg_topup(config=cfg)),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--faults", type=int, default=500,
                        help="faults per circuit/core (paper: 500)")
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    args = parser.parse_args()

    config = paper_config(num_faults=args.faults, num_faults_large=args.faults)
    sink = open(args.out, "w") if args.out else None

    def emit(text=""):
        print(text)
        if sink:
            sink.write(text + "\n")
            sink.flush()

    emit(f"# Paper-scale reproduction ({args.faults} faults per circuit/core)")
    start = time.time()
    for title, runner in EXPERIMENTS:
        t0 = time.time()
        emit()
        emit(f"== {title} ==")
        result = runner(config)
        emit(result.render())
        emit(f"[{title}: {time.time() - t0:.1f}s]")
    emit()
    emit(f"total: {time.time() - start:.1f}s")
    if sink:
        sink.close()


if __name__ == "__main__":
    main()
