#!/usr/bin/env python
"""Quickstart: diagnose the failing scan cells of one stuck-at fault.

Builds the full-scan s953 benchmark, injects a single stuck-at fault, runs
a two-step partitioned scan-BIST diagnosis (one interval partition followed
by random-selection partitions) and prints the candidate failing cells.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    EmbeddedCore,
    LinearCompactor,
    ScanConfig,
    TwoStepPartitioner,
    diagnose,
    get_circuit,
)
from repro.core.superposition import apply_superposition


def main():
    # 1. A full-scan circuit with one internal scan chain.
    circuit = get_circuit("s953")
    core = EmbeddedCore(circuit, num_patterns=128)
    print(f"circuit: {circuit!r}")

    # 2. Inject a sampled single stuck-at fault and capture its per-pattern
    #    error matrix (which scan cells capture wrong values, and when).
    rng = np.random.default_rng(2003)
    response = core.sample_fault_responses(1, rng)[0]
    print(f"injected fault     : {response.fault}")
    print(f"failing scan cells : {response.failing_cells}")

    # 3. The BIST-side configuration: scan chain, partitions, compactor.
    scan = ScanConfig.single_chain(core.num_cells)
    partitions = TwoStepPartitioner(core.num_cells, num_groups=8).partitions(6)
    compactor = LinearCompactor(width=24, num_inputs=1)

    # 4. Diagnose: one signature per (group, partition) session, failing
    #    groups intersected across partitions.
    result = diagnose(response, scan, partitions, compactor)
    print(f"candidates (intersection pruning) : {sorted(result.candidate_cells)}")
    print(f"candidate count per partition     : {result.candidate_history}")

    # 5. Superposition post-processing ([7]) sharpens the answer for free.
    [pruned] = apply_superposition([result], scan)
    print(f"candidates (superposition pruning): {sorted(pruned.candidate_cells)}")
    assert pruned.actual_cells <= pruned.candidate_cells, "diagnosis must be sound"
    print("all truly failing cells are in the candidate set — diagnosis sound")


if __name__ == "__main__":
    main()
