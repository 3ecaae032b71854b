"""The repository benchmark: four workloads, checked outputs, one JSON line.

Usage::

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace 0|1 | --traced] [--out DIR]

Each workload prints its end-to-end metrics by name with their units and,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
(``--traced``) is a separate run that wraps the program's layers in spans:
its JSON carries the per-layer metrics, its table shows each layer's self
time, the unattributed residual and the tracing overhead (traced minus
untraced, when ``DIR`` holds an untraced result for the same seed).  A
failed check prints no JSON, writes no result file and exits 1.

With several workloads (the default is all four) each runs in its own
subprocess, one after the other.
"""

from __future__ import annotations

import argparse
import functools
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List

sys.dont_write_bytecode = True

from common import (DEFAULT_OUT, ROOT, CheckFailed,  # noqa: E402
                    environment_record, pin_environment, use_repo_src)


def _load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _workloads() -> Dict[str, Callable[..., Dict[str, Any]]]:
    import offline
    import serve

    return {
        "paper_cold": offline.run_paper_cold,
        "dr_sweep": offline.run_dr_sweep,
        "serve_replay": functools.partial(serve.run, serve.REPLAY),
        "serve_upload": functools.partial(serve.run, serve.UPLOAD),
    }


def run_one(name: str, seed: int, seconds: float, traced: bool,
            out_dir: Path) -> int:
    spec = _load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        env = pin_environment()
        use_repo_src()
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        result = _workloads()[name](seed, seconds, traced, out_dir)
    except CheckFailed as exc:
        print(f"CHECK FAILED [{name}]: {exc}", file=sys.stderr)
        return 1

    wanted = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    layers = {m["name"]: result["layers"].get(m["name"], 0.0)
              for m in spec["per_layer"]}
    print(f"== {name} (seed {seed}, {'traced' if traced else 'untraced'}, "
          f"{time.perf_counter() - started:.1f} s)")
    untraced = _untraced_result(out_dir, name, seed) if traced else None
    for metric in spec["end_to_end"]:
        key = metric["name"]
        value = result["metrics"][key]
        line = f"  {key:<28} {value:>14.4f} {metric['unit']}"
        if untraced is not None:
            line += f"   tracing overhead {value - untraced['metrics'][key]:+.4f}"
        print(line)
    if traced:
        print("  per layer:")
        for key, value in layers.items():
            print(f"  {key:<28} {value:>14.4f} {units[key]}")
        if untraced is None:
            print("  (run untraced with the same --seed and --out first to "
                  "see the tracing overhead)")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "correct": True, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
        "layers": layers, "detail": result.get("detail", {}),
        "environment": dict(environment_record(), pinned=env),
    }
    suffix = "-traced" if traced else ""
    with open(out_dir / f"{name}-seed{seed}{suffix}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    values = layers if traced else result["metrics"]
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in wanted},
    }))
    return 0


def _untraced_result(out_dir: Path, name: str, seed: int):
    path = out_dir / f"{name}-seed{seed}.json"
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where result files and spans go")
    args = parser.parse_args(argv)
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or names
    unknown = [n for n in chosen if n not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace) or args.traced
    if len(chosen) == 1:
        try:
            return run_one(chosen[0], args.seed, seconds, traced, args.out)
        except Exception:  # noqa: BLE001 - report, never print a result
            traceback.print_exc()
            return 1
    status = 0
    for name in chosen:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(int(traced)), "--out", str(args.out)]
        status |= subprocess.run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
