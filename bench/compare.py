"""Compare two sets of benchmark results against the BENCHMARK.json bounds.

Usage: ``python bench/compare.py A/ B/``

``A`` and ``B`` are ``--out`` directories of ``bench/run.py`` (one
untraced result file per run; traced results are ignored).  For every
workload and end-to-end metric the script prints each set's median and
quartiles, the change of B's median against A's, and a verdict:

* ``agree`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — either set's quartile spread (as a share of its
  median) is wider than the bound, so the sets cannot tell, unless every
  run of B reads better than every run of A.

The serve workloads' highest step meeting the SLO (``max_rps_at_slo``)
must also be the same in every run.  Exits 0 only if everything agrees.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from common import ROOT, quartiles


def load_results(directory: Path) -> Dict[str, List[dict]]:
    """Untraced result records of a directory, by workload."""
    by_workload: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        with open(path) as handle:
            record = json.load(handle)
        if isinstance(record, dict) and "workload" in record \
                and not record.get("traced"):
            by_workload[record["workload"]].append(record)
    return by_workload


def verdict(a: List[float], b: List[float], better: str, bound: float
            ) -> Tuple[str, float]:
    """(verdict, change of B's median against A's as a signed share)."""
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    worse = change if better == "lower" else -change
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        b_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("agree" if b_better else "unresolved"), change
    return ("regressed" if worse > bound else "agree"), change


def compare(dir_a: Path, dir_b: Path, spec: dict) -> int:
    runs_a, runs_b = load_results(dir_a), load_results(dir_b)
    failures = 0
    header = (f"{'workload':<13} {'metric':<21} {'A median [q1, q3] (n)':>34} "
              f"{'B median [q1, q3] (n)':>34} {'change':>8} {'bound':>6}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a or not b:
            print(f"{workload:<13} (missing results: A has {len(a)}, B {len(b)})")
            failures += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name] for r in a]
            vb = [r["metrics"][name] for r in b]
            result, change = verdict(va, vb, metric["better"], metric["bound"])
            failures += result != "agree"
            print(f"{workload:<13} {name:<21} {_fmt(va):>34} {_fmt(vb):>34} "
                  f"{change * 100:>+7.1f}% {metric['bound'] * 100:>5.0f}%  {result}")
        steps = {r["detail"].get("max_rps_at_slo") for r in a + b} - {None}
        if steps:
            same = len(steps) == 1
            failures += not same
            print(f"{workload:<13} {'max_rps_at_slo':<21} {sorted(steps)} rps "
                  f"{'identical in every run' if same else 'DIFFERS between runs'}")
    return 1 if failures else 0


def _fmt(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return compare(Path(argv[0]), Path(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
