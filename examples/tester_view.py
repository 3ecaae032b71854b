#!/usr/bin/env python
"""The literal tester flow: golden vs observed MISR signatures.

Everything the experiment harness does with fast linear algebra, done here
the way the silicon and the ATE do it: serialize every captured response
through the scan chain, mask by the session's selected cells, clock the
real 16-bit MISR, and compare the observed signature against the golden
one.  Finishes by verifying the fast path agrees bit-for-bit.

Run:  python examples/tester_view.py
"""

import numpy as np

from repro import EmbeddedCore, LinearCompactor, ScanConfig, get_circuit
from repro.bist.golden import good_captured_matrix, run_tester_partition
from repro.bist.session import collect_error_events, run_partition_sessions
from repro.core.two_step import TwoStepPartitioner

NUM_GROUPS = 4
MISR_WIDTH = 16


def main():
    core = EmbeddedCore(get_circuit("s953"), num_patterns=32)
    scan = ScanConfig.single_chain(core.num_cells)
    response = core.sample_fault_responses(1, np.random.default_rng(9))[0]
    print(f"circuit: s953 ({core.num_cells} cells, 32 patterns)")
    print(f"fault:   {response.fault}")
    print(f"failing: {response.failing_cells}")
    print()

    partition = TwoStepPartitioner(core.num_cells, NUM_GROUPS).next_partition()
    captured = good_captured_matrix(core.good)  # the fault-free responses
    sessions = run_tester_partition(
        captured, response, scan, partition.group_of, NUM_GROUPS, MISR_WIDTH
    )
    print(f"interval partition, {NUM_GROUPS} sessions through the real MISR:")
    for group, session in enumerate(sessions):
        members = partition.members(group)
        span = f"{members[0]}-{members[-1]}" if members.size else "(empty)"
        verdict = "FAIL" if session.mismatch else "pass"
        print(f"  session {group} (cells {span:>7}): golden={session.golden:04x} "
              f"observed={session.observed:04x}  -> {verdict}")

    # The harness's shortcut: error signatures via the linear MISR model.
    events = collect_error_events(response, scan)
    outcome = run_partition_sessions(
        events, partition.group_of, NUM_GROUPS,
        scan.total_cycles(response.num_patterns),
        LinearCompactor(MISR_WIDTH, 1),
    )
    print()
    print("cross-check vs the linear error-signature model:")
    for group, session in enumerate(sessions):
        fast = outcome.signatures[group][0]
        slow = session.golden ^ session.observed
        status = "ok" if fast == slow else "MISMATCH"
        print(f"  session {group}: golden^observed={slow:04x} "
              f"linear={fast:04x}  {status}")
        assert fast == slow
    print()
    print("the fast path is exact, not an approximation.")


if __name__ == "__main__":
    main()
