"""Fleet-wide aggregation of per-worker registry snapshots: the
supervisor folds heartbeats with ``merge_snapshots``, and histograms —
request latency included — add their log buckets index-wise."""

import numpy as np

from repro.service.server import REQUEST_SECONDS, latency_summary
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
)
from repro.telemetry.metrics import cumulative_buckets, quantile, summary


def snapshot(counters=None, gauges=None, histograms=None):
    return {
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def worker(**stages):
    """A worker registry snapshot with ``service.request_seconds``
    observations per stage (seconds)."""
    registry = MetricsRegistry()
    for stage, values in stages.items():
        for value in values:
            registry.observe(REQUEST_SECONDS, value, labels={"stage": stage})
    return registry.snapshot()


class TestRegistryMerge:
    def test_counters_sum_across_workers(self):
        merged = merge_snapshots({
            "0": snapshot(counters={"service.requests{code=ok}": 10}),
            "1": snapshot(counters={"service.requests{code=ok}": 5,
                                    "service.timeouts": 1}),
        })
        assert merged["counters"]["service.requests{code=ok}"] == 15
        assert merged["counters"]["service.timeouts"] == 1

    def test_gauges_relabeled_per_worker(self):
        merged = merge_snapshots({
            "0": snapshot(gauges={"process.rss_bytes": 100}),
            "1": snapshot(gauges={"process.rss_bytes": 200}),
        })
        gauges = merged["gauges"]
        assert gauges["process.rss_bytes{worker=0}"] == 100
        assert gauges["process.rss_bytes{worker=1}"] == 200
        assert "process.rss_bytes" not in gauges

    def test_gauge_with_existing_labels_keeps_them(self):
        merged = merge_snapshots({
            "2": snapshot(gauges={"soa.levels{circuit=s953}": 7}),
        })
        assert merged["gauges"]["soa.levels{circuit=s953,worker=2}"] == 7

    def test_histograms_merge_envelope(self):
        merged = merge_snapshots({
            "0": snapshot(histograms={
                "service.batch_size": {"count": 2, "sum": 6.0,
                                       "min": 2.0, "max": 4.0}}),
            "1": snapshot(histograms={
                "service.batch_size": {"count": 1, "sum": 9.0,
                                       "min": 9.0, "max": 9.0}}),
        })
        hist = merged["histograms"]["service.batch_size"]
        assert hist["count"] == 3
        assert hist["sum"] == 15.0
        assert hist["min"] == 2.0 and hist["max"] == 9.0

    def test_base_snapshot_not_relabeled(self):
        merged = merge_snapshots(
            {"0": snapshot(counters={"cluster.heartbeats": 3})},
            base=snapshot(gauges={"cluster.workers": 4},
                          counters={"cluster.spawns": 4}),
        )
        assert merged["gauges"]["cluster.workers"] == 4
        assert merged["counters"]["cluster.spawns"] == 4
        assert merged["counters"]["cluster.heartbeats"] == 3

    def test_inputs_not_mutated(self):
        worker_snap = snapshot(gauges={"g": 1})
        base = snapshot(gauges={"cluster.workers": 2})
        merge_snapshots({"0": worker_snap}, base=base)
        assert worker_snap == snapshot(gauges={"g": 1})
        assert base == snapshot(gauges={"cluster.workers": 2})


class TestLatencyStateMerge:
    def test_bucketwise_merge_is_lossless(self):
        # Two workers each observe half the samples; their merged
        # histogram must equal one histogram holding all of them.
        rng = np.random.default_rng(8)
        samples = rng.uniform(0.001, 0.5, size=400)
        reference, left, right = Histogram(), Histogram(), Histogram()
        for i, s in enumerate(samples):
            reference.observe(s)
            (left if i % 2 == 0 else right).observe(s)
        merged = merge_snapshots({
            "0": snapshot(histograms={"h": left.to_dict()}),
            "1": snapshot(histograms={"h": right.to_dict()}),
        })["histograms"]["h"]
        expected = reference.to_dict()
        assert merged["buckets"] == expected["buckets"]
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            assert quantile(merged, q) == quantile(expected, q)
        assert merged["count"] == reference.count

    def test_state_summary_matches_histogram_summary(self):
        # A histogram round-tripped through a fleet merge summarizes
        # exactly like the original.
        hist = Histogram()
        for ms in (1, 2, 5, 10, 100):
            hist.observe(ms / 1000)
        merged = merge_snapshots(
            {"0": snapshot(histograms={"h": hist.to_dict()})})
        assert summary(merged["histograms"]["h"]) == summary(hist.to_dict())

    def test_merge_boards_stage_wise(self):
        merged = merge_snapshots({
            "0": worker(total=[0.010], execute=[0.002]),
            "1": worker(total=[0.030]),
        })
        fleet = latency_summary(merged)
        assert fleet["total"]["count"] == 2
        assert fleet["execute"]["count"] == 1
        assert fleet["queue_wait"]["count"] == 0

    def test_missing_and_empty_workers_tolerated(self):
        merged = merge_snapshots({
            "0": worker(total=[0.020]), "1": {}, "2": None,
        })
        assert latency_summary(merged)["total"]["count"] == 1

    def test_fleet_summary_shape(self):
        fleet = latency_summary(
            merge_snapshots({"0": worker(total=[0.004] * 10)}))
        assert fleet["total"]["count"] == 10
        assert fleet["total"]["p95_ms"] > 0


class TestPrometheusRendering:
    def test_merged_series_render_as_histograms(self):
        text = render_prometheus(merge_snapshots({
            "0": worker(total=[ms / 1000 for ms in (2, 4, 8)]),
            "1": worker(total=[ms * 2 / 1000 for ms in (2, 4, 8)]),
        }))
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert ('repro_service_request_seconds_bucket'
                '{le="+Inf",stage="total"} 6') in text
        assert 'repro_service_request_seconds_count{stage="total"} 6' in text

    def test_cumulative_counts_monotone(self):
        merged = merge_snapshots({
            "0": worker(total=[ms / 1000 for ms in (1, 1, 3, 50, 700)]),
        })
        key = f"{REQUEST_SECONDS}{{stage=total}}"
        series = cumulative_buckets(merged["histograms"][key])
        bounds = [b for b, _ in series]
        counts = [c for _, c in series]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)
        assert counts[-1] == 5
