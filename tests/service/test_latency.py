"""Service request latency: the registry's log-bucket histogram, read
through ``summary`` / ``quantile``, keeps quantiles within bucket
resolution and reports the ``latency`` stages the server serves."""

from repro.service.server import REQUEST_SECONDS, latency_summary
from repro.telemetry import Histogram, MetricsRegistry
from repro.telemetry.metrics import quantile, summary


def observed(*seconds):
    hist = Histogram()
    for value in seconds:
        hist.observe(value)
    return hist.to_dict()


class TestLatencyHistogram:
    def test_empty_quantile_is_none(self):
        hist = Histogram().to_dict()
        assert quantile(hist, 0.5) is None
        assert summary(hist)["count"] == 0
        assert summary(None)["count"] == 0

    def test_single_observation(self):
        hist = observed(0.010)
        # One sample: every quantile is that sample (within bucket width).
        for q in (0.5, 0.95, 0.99):
            assert abs(quantile(hist, q) - 0.010) / 0.010 < 0.10

    def test_quantiles_track_distribution(self):
        hist = observed(*(ms / 1000.0 for ms in range(1, 101)))  # 1..100 ms
        p50, p99 = quantile(hist, 0.50), quantile(hist, 0.99)
        assert 0.040 <= p50 <= 0.060
        assert 0.090 <= p99 <= 0.110
        assert p50 <= quantile(hist, 0.95) <= p99

    def test_quantile_never_exceeds_max(self):
        hist = observed(0.005, 0.005)
        assert quantile(hist, 1.0) <= 0.005 * 1.0001

    def test_summary_units_are_ms(self):
        result = summary(observed(0.250))
        assert result["count"] == 1
        assert 240 <= result["p50_ms"] <= 275
        assert result["max_ms"] == 250.0
        assert set(result) == {"count", "sum_ms", "mean_ms", "max_ms",
                               "p50_ms", "p95_ms", "p99_ms"}

    def test_reset(self):
        registry = MetricsRegistry()
        registry.observe(REQUEST_SECONDS, 1.0, labels={"stage": "total"})
        registry.reset()
        assert latency_summary(registry.snapshot())["total"]["count"] == 0


class TestLatencyBoard:
    def test_named_families(self):
        registry = MetricsRegistry()
        registry.observe(REQUEST_SECONDS, 0.1, labels={"stage": "total"})
        result = latency_summary(registry.snapshot())
        assert set(result) == {"total", "queue_wait", "execute"}
        assert result["total"]["count"] == 1
        assert result["execute"]["count"] == 0
