"""Regenerate Table 2, Table 3 and Figure 5 in this (fresh) interpreter.

Usage: ``python bench/paper_tables.py --seed N --faults F --out FILE
[--spans FILE]``, or ``--import-only`` to stop after importing.

The ``paper_cold`` workload runs this script as a subprocess, so every
regeneration starts with empty caches, as a researcher's run does.  The
rendered tables and the memo-cache statistics go to ``--out`` as JSON;
with ``--spans`` the pipeline's layers are wrapped and their spans written
as JSONL.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import use_repo_src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--faults", type=int, default=300)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    use_repo_src()
    from repro.experiments import cache
    from repro.experiments.config import paper_config
    from repro.experiments.figure5 import run_figure5
    from repro.experiments.soc_tables import run_table3
    from repro.experiments.table2 import run_table2

    if args.import_only:
        return 0
    recorder = None
    if args.spans:
        from tracing import Recorder, install_offline

        recorder = Recorder()
        install_offline(recorder)
    config = paper_config(num_faults=args.faults, num_faults_large=args.faults,
                          fault_seed=args.seed)
    rendered, stage_s = [], {}
    for name, run in (("table2", run_table2), ("table3", run_table3),
                      ("figure5", run_figure5)):
        t0 = time.perf_counter()
        rendered.append(run(config).render())
        stage_s[name] = time.perf_counter() - t0
    stats = cache.stats()
    hits, misses = sum(stats.hits.values()), sum(stats.misses.values())
    if recorder is not None:
        recorder.restore()
        recorder.dump(args.spans)
    with open(args.out, "w") as handle:
        json.dump({"rendered": "\n".join(rendered) + "\n", "stage_s": stage_s,
                   "cache_hits": hits, "cache_misses": misses}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
