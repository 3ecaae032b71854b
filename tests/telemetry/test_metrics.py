"""MetricsRegistry: counters, gauges, histograms, snapshot algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    metric_key,
    split_metric_key,
)
from repro.telemetry.metrics import (
    ZERO_BUCKET,
    bucket_index,
    bucket_upper,
    quantile,
)


class TestKeys:
    def test_plain_and_labelled(self):
        assert metric_key("cache.hits") == "cache.hits"
        key = metric_key("cache.hits", {"kind": "workload"})
        assert key == "cache.hits{kind=workload}"

    def test_labels_sorted_canonically(self):
        a = metric_key("m", {"b": 2, "a": 1})
        b = metric_key("m", {"a": 1, "b": 2})
        assert a == b == "m{a=1,b=2}"

    def test_split_roundtrip(self):
        name, labels = split_metric_key("pool.tasks{worker=3}")
        assert name == "pool.tasks"
        assert labels == {"worker": "3"}
        assert split_metric_key("plain") == ("plain", {})


class TestCounters:
    def test_incr_accumulates(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.incr("a", 4)
        assert reg.counter("a") == 5

    def test_label_dimensions_are_distinct(self):
        reg = MetricsRegistry()
        reg.incr("cache.hits", 2, labels={"kind": "workload"})
        reg.incr("cache.hits", 3, labels={"kind": "partitions"})
        assert reg.counter("cache.hits", {"kind": "workload"}) == 2
        assert reg.counter_total("cache.hits") == 5


class TestHistograms:
    def test_streaming_summary(self):
        hist = Histogram()
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 12.0
        assert (hist.min, hist.max) == (2.0, 6.0)
        assert hist.mean == 4.0

    def test_merge_combines_bounds(self):
        a = Histogram()
        a.observe(1.0)
        b = Histogram()
        b.observe(5.0)
        b.observe(9.0)
        a.merge(b.to_dict())
        assert a.count == 3
        assert (a.min, a.max) == (1.0, 9.0)

    def test_merge_empty_is_noop(self):
        hist = Histogram()
        hist.observe(2.0)
        hist.merge(Histogram().to_dict())
        assert hist.count == 1


class TestLogBuckets:
    def test_extremes_land_in_distinct_unclamped_buckets(self):
        hist = Histogram()
        for value in (0.0, 1e-6, 1e5):
            hist.observe(value)
        buckets = hist.to_dict()["buckets"]
        assert len(buckets) == 3
        assert int(min(buckets, key=int)) == ZERO_BUCKET
        for value in (1e-6, 1e5):
            index = bucket_index(value)
            # Each value sits inside its own bucket, not a clamped edge.
            assert bucket_upper(index - 1) <= value < bucket_upper(index)
            assert buckets[str(index)] == 1

    def test_nonpositive_values_share_the_zero_bucket(self):
        assert bucket_index(0.0) == bucket_index(-3.0) == ZERO_BUCKET
        assert bucket_upper(ZERO_BUCKET) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantiles_within_one_bucket_of_exact(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.lognormal(mean=-4.0, sigma=2.0, size=5000)
        hist = Histogram()
        for value in samples:
            hist.observe(value)
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            exact = float(np.quantile(samples, q, method="inverted_cdf"))
            estimate = quantile(hist.to_dict(), q)
            assert exact <= estimate <= exact * 1.091

    def test_diff_then_merge_keeps_buckets(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.observe("h", 1.0)
        reg.observe("h", 300.0)
        delta = reg.diff(before)["histograms"]["h"]
        assert delta["buckets"] == {str(bucket_index(1.0)): 1,
                                    str(bucket_index(300.0)): 1}
        other = Histogram()
        other.merge(before["histograms"]["h"])
        other.merge(delta)
        assert other.to_dict() == reg.snapshot()["histograms"]["h"]


class TestSnapshotAlgebra:
    def test_diff_reports_only_activity(self):
        reg = MetricsRegistry()
        reg.incr("before", 10)
        before = reg.snapshot()
        reg.incr("before", 1)
        reg.incr("fresh", 2)
        reg.observe("h", 3.0)
        delta = reg.diff(before)
        assert delta["counters"] == {"before": 1, "fresh": 2}
        assert delta["histograms"]["h"]["count"] == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.gauge("g", 1.0)
        reg.observe("h", 1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_snapshot_is_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.incr("a", 2)
        reg.observe("h", 1.5)
        reg.gauge("g", 0.25)
        assert json.loads(json.dumps(reg.snapshot()))["counters"]["a"] == 2
