"""Process-wide metrics: counters, gauges and histograms.

Pipeline components report into the shared :data:`METRICS` registry —
cache hits and misses per memo store, faults simulated, error events
extracted, sessions compacted, batch sizes served — and exporters
snapshot it into the run manifest.  Metric names are dotted
(``cache.hits``); low-cardinality dimensions ride in ``labels`` and are
canonicalized into the key (``cache.hits{kind=workload}``), so snapshots
are plain string-keyed dicts that serialize and merge trivially.

The registry is always on: increments happen at per-fault / per-chunk
granularity (never per event or per bit — callers batch with ``value=``),
so the cost is one dict update under a lock, invisible next to the numpy
work between increments.  Histograms keep sparse log buckets with no floor
or ceiling, so seconds, batch sizes and event counts share one layout,
merge losslessly across processes and give quantiles within one bucket
(:func:`summary` is the p50/p95/p99 view).  :meth:`MetricsRegistry.diff`
is a section's activity since an earlier snapshot, and
:meth:`MetricsRegistry.merge` folds such a delta into a registry.
"""

from __future__ import annotations

import math
import sys
import threading
from typing import Any, Dict, List, Optional, Tuple


def metric_key(name: str, labels: Optional[Dict[str, Any]] = None) -> str:
    """Canonical storage key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple:
    """Inverse of :func:`metric_key`: ``(name, labels_dict)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        if "=" in part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


#: Log buckets per factor of two.  Bucket ``i`` holds
#: ``2**(i/8) <= v < 2**((i+1)/8)``, so a quantile read off a bucket's
#: upper bound is within ``2**(1/8) - 1`` (9.05%) of the exact value.
BUCKETS_PER_OCTAVE = 8
#: The one bucket for ``v <= 0``.  It sits below the smallest positive
#: double's index (-8592), so ascending index order keeps it first.
ZERO_BUCKET = -10_000


def bucket_index(value: float) -> int:
    """``floor(log2(v) * 8)``, or :data:`ZERO_BUCKET` for ``v <= 0``.

    No floor or ceiling: seconds, batch sizes and event counts share the
    one layout, so any two histograms merge index-wise.
    """
    if not value > 0:  # NaN lands here too
        return ZERO_BUCKET
    return math.floor(math.log2(min(value, sys.float_info.max))
                      * BUCKETS_PER_OCTAVE)


def bucket_upper(index: int) -> float:
    """Upper bound of a bucket (what a quantile inside it reports)."""
    if index == ZERO_BUCKET:
        return 0.0
    return 2.0 ** ((index + 1) / BUCKETS_PER_OCTAVE)


class Histogram:
    """Streaming count / sum / min / max plus sparse log buckets."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
        }

    def merge(self, other: Dict[str, Any]) -> None:
        count = int(other.get("count", 0))
        if not count:
            return
        self.count += count
        self.total += float(other.get("sum", 0.0))
        for bound, pick in (("min", min), ("max", max)):
            value = other.get(bound)
            if value is None:
                continue
            mine = getattr(self, bound)
            setattr(self, bound, value if mine is None else pick(mine, value))
        for index, n in (other.get("buckets") or {}).items():
            index = int(index)
            self.buckets[index] = self.buckets.get(index, 0) + int(n)


def cumulative_buckets(hist: Dict[str, Any]) -> List[Tuple[float, int]]:
    """``(upper_bound, cumulative_count)`` per occupied bucket of a
    histogram dict, ascending — the Prometheus ``_bucket{le=...}`` shape."""
    out: List[Tuple[float, int]] = []
    cum = 0
    counts = hist.get("buckets") or {}
    for index in sorted(counts, key=int):
        cum += int(counts[index])
        out.append((bucket_upper(int(index)), cum))
    return out


def quantile(hist: Dict[str, Any], q: float) -> Optional[float]:
    """The q-quantile of a histogram dict: the upper bound of the bucket
    holding rank ``ceil(q * count)``, capped at ``max`` (None if empty)."""
    if not 0 < q <= 1:
        raise ValueError("quantile must be in (0, 1]")
    count = int(hist.get("count", 0))
    if not count:
        return None
    rank = math.ceil(q * count)
    peak = hist["max"]
    for upper, cum in cumulative_buckets(hist):
        if cum >= rank:
            return min(upper, peak)
    return peak


def summary(hist: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Dashboard view of a seconds histogram dict: count, sum, mean, max
    and pXX, all in **ms**; an absent histogram reads as empty."""
    hist = hist or {}
    count = int(hist.get("count", 0))
    total = float(hist.get("sum", 0.0))
    out: Dict[str, float] = {
        "count": count,
        "sum_ms": round(total * 1000, 3),
        "mean_ms": round(total / count * 1000, 3) if count else 0.0,
        "max_ms": round((hist.get("max") or 0.0) * 1000, 3),
    }
    for q in (0.5, 0.95, 0.99):
        value = quantile(hist, q)
        out[f"p{int(q * 100)}_ms"] = round(value * 1000, 3) if value else 0.0
    return out


class MetricsRegistry:
    """Thread-safe counter/gauge/histogram store with snapshot algebra."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------------

    def incr(self, name: str, value: float = 1,
             labels: Optional[Dict[str, Any]] = None) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float,
              labels: Optional[Dict[str, Any]] = None) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float,
                labels: Optional[Dict[str, Any]] = None) -> None:
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    # -- reading ------------------------------------------------------------

    def counter(self, name: str, labels: Optional[Dict[str, Any]] = None) -> float:
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label combinations."""
        with self._lock:
            return sum(
                v for k, v in self._counters.items()
                if k == name or k.startswith(name + "{")
            )

    def snapshot(self) -> Dict[str, Any]:
        """A deep, JSON-ready copy of the whole registry."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }

    def diff(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """Registry activity since ``before`` (an earlier :meth:`snapshot`).

        Counters and histogram count/sum/buckets subtract; histogram
        min/max and gauges keep their latest values (monotone merges stay
        correct, and gauges are last-writer-wins by definition).
        """
        now = self.snapshot()
        counters = {}
        for key, value in now["counters"].items():
            delta = value - before.get("counters", {}).get(key, 0)
            if delta:
                counters[key] = delta
        histograms = {}
        for key, hist in now["histograms"].items():
            prior = before.get("histograms", {}).get(key)
            if prior is None:
                if hist["count"]:
                    histograms[key] = hist
                continue
            count = hist["count"] - prior.get("count", 0)
            if count:
                was = prior.get("buckets") or {}
                histograms[key] = {
                    "count": count,
                    "sum": hist["sum"] - prior.get("sum", 0.0),
                    "min": hist["min"],
                    "max": hist["max"],
                    "mean": None,
                    "buckets": {
                        index: n - was.get(index, 0)
                        for index, n in hist["buckets"].items()
                        if n != was.get(index, 0)
                    },
                }
        return {"counters": counters, "gauges": now["gauges"], "histograms": histograms}

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_snapshots(
    snapshots: Dict[str, Dict[str, Any]],
    base: Optional[Dict[str, Any]] = None,
    gauge_label: Optional[str] = "worker",
) -> Dict[str, Any]:
    """Merge registry **snapshots** from several processes into one.

    This is the fleet-aggregation counterpart of
    :meth:`MetricsRegistry.merge`, operating on plain snapshot dicts so
    the supervisor never has to instantiate a registry per worker:

    * counters sum across sources;
    * histograms add count/sum and buckets index-wise (every process
      shares the one log-bucket layout, so fleet quantiles are exactly
      those of one process observing every sample) and take the min/max
      envelope;
    * gauges are **relabeled** with ``gauge_label=<source>`` (a gauge like
      ``process.rss_bytes`` from two workers must not last-writer-wins —
      per-source series are the only honest aggregate).  Pass
      ``gauge_label=None`` to fall back to last-writer-wins.

    ``base`` (e.g. the supervisor's own snapshot) seeds the result and is
    never relabeled.  Inputs are not mutated.
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    if base:
        merged["counters"].update(base.get("counters", {}))
        merged["gauges"].update(base.get("gauges", {}))
        merged["histograms"].update(
            {k: dict(v) for k, v in base.get("histograms", {}).items()}
        )
    for source in sorted(snapshots):
        snap = snapshots[source] or {}
        for key, value in snap.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key, value in snap.get("gauges", {}).items():
            if gauge_label is None:
                merged["gauges"][key] = value
            else:
                name, labels = split_metric_key(key)
                labels[gauge_label] = source
                merged["gauges"][metric_key(name, labels)] = value
        for key, data in snap.get("histograms", {}).items():
            into = merged["histograms"].get(key)
            if into is None:
                merged["histograms"][key] = dict(data)
                continue
            hist = Histogram()
            hist.merge(into)
            hist.merge(data)
            merged["histograms"][key] = hist.to_dict()
    return merged


#: Process-wide registry used by all pipeline instrumentation.
METRICS = MetricsRegistry()
