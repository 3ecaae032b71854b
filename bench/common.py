"""Paths, the pinned program environment and the statistics every bench
module shares.

The benchmark measures the program from outside: it puts ``src/`` on the
import path (nothing is installed), clears every ``REPRO_*`` knob so the
program runs with its defaults, and never writes under ``src/``.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_OUT = BENCH_DIR / "out"

#: The only program knob the benchmark sets: quiet logs keep stderr small.
PINNED_ENV = {"REPRO_LOG": "quiet"}


class CheckFailed(Exception):
    """An output check failed: the run prints no result and exits non-zero."""


def pin_environment() -> Dict[str, str]:
    """Clear every ``REPRO_*`` variable except the pinned ones, in this
    process (children inherit it).  Disk tier, fork pool, cluster and
    batching knobs are thereby at their defaults.  Returns what was set."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(PINNED_ENV)
    # Bytecode caches would land in the checkout (and rewrite tracked
    # .pyc files there); the benchmark leaves the tree as it found it.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    return dict(PINNED_ENV)


def use_repo_src() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckFailed(f"no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for a program subprocess: the pinned env plus ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def environment_record() -> Dict[str, object]:
    """What the run depended on, recorded next to its numbers."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "repro_env": {k: v for k, v in os.environ.items()
                      if k.startswith("REPRO_")},
    }


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM in /proc/{pid}/status")


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail_quantile(count: int) -> float:
    """The highest percentile, at most p99, with at least ten samples
    beyond it; with fewer than 20 samples the maximum stands in."""
    if count < 20:
        return 1.0
    return min(0.99, 1.0 - 10.0 / count)


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile, as ``statistics.quantiles``
    (exclusive method) gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return [float(values[0])] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]
