"""Prometheus text-exposition renderer, verified by an actual parser.

``_parse`` implements the exposition-format grammar (v0.0.4) strictly
enough that any malformed line the renderer could emit — bad metric
name, unescaped label value, sample without a ``# TYPE`` family — fails
the test, not just a substring check.
"""

from __future__ import annotations

import math
import re

from repro.telemetry import METRICS, render_prometheus, sanitize_metric_name
from repro.telemetry.metrics import quantile

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_TYPE_LINE = re.compile(rf"^# TYPE ({_NAME}) (counter|gauge|summary|histogram)$")
_SAMPLE_LINE = re.compile(
    rf"^({_NAME})(\{{[^{{}}]*\}})? (NaN|[+-]?(?:Inf|[0-9.eE+-]+))$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse(text):
    """(families, samples): ``# TYPE`` declarations and every sample as
    ``(name, labels_dict, value)``.  Raises AssertionError on any line
    that is not valid exposition format."""
    families = {}
    samples = []
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            match = _TYPE_LINE.match(line)
            assert match, f"bad metadata line: {line!r}"
            families[match.group(1)] = match.group(2)
            continue
        match = _SAMPLE_LINE.match(line)
        assert match, f"bad sample line: {line!r}"
        name, labels_raw, value = match.groups()
        labels = {}
        if labels_raw:
            body = labels_raw[1:-1].rstrip(",")
            consumed = ",".join(
                f'{k}="{v}"' for k, v in _LABEL.findall(body)
            )
            assert consumed == body, f"bad labels: {labels_raw!r}"
            labels = dict(_LABEL.findall(body))
        samples.append((name, labels, value))
    for name, _labels, _value in samples:
        base = re.sub(r"_(total|sum|count|bucket)$", "", name)
        assert name in families or base in families, (
            f"sample {name!r} has no # TYPE family"
        )
    return families, samples


class TestNameSanitization:
    def test_dots_and_bad_chars_fold(self):
        assert sanitize_metric_name("cache.disk.hits") == "repro_cache_disk_hits"
        assert sanitize_metric_name("weird name-1") == "repro_weird_name_1"

    def test_namespace_optional(self):
        assert sanitize_metric_name("x.y", namespace="") == "x_y"


class TestRegistryRendering:
    def test_counters_gauges_histograms_parse(self):
        METRICS.incr("cache.hits", 3, labels={"kind": "workload"})
        METRICS.incr("cache.hits", 2, labels={"kind": "partitions"})
        METRICS.gauge("pool.utilization", 0.75)
        METRICS.observe("service.batch_size", 4)
        METRICS.observe("service.batch_size", 8)
        families, samples = _parse(render_prometheus(METRICS.snapshot()))

        assert families["repro_cache_hits_total"] == "counter"
        hits = {
            labels["kind"]: value
            for name, labels, value in samples
            if name == "repro_cache_hits_total"
        }
        assert hits == {"workload": "3", "partitions": "2"}

        assert families["repro_pool_utilization"] == "gauge"
        assert ("repro_pool_utilization", {}, "0.75") in samples

        # Registry histograms are real Prometheus histograms: one
        # bucket per occupied log bucket (4 and 8 sit an octave apart),
        # closed by +Inf at the count.
        assert families["repro_service_batch_size"] == "histogram"
        by_name = {name: value for name, labels, value in samples}
        assert by_name["repro_service_batch_size_sum"] == "12"
        assert by_name["repro_service_batch_size_count"] == "2"
        buckets = [(labels["le"], value) for name, labels, value in samples
                   if name == "repro_service_batch_size_bucket"]
        assert [value for _, value in buckets] == ["1", "2", "2"]
        assert buckets[-1][0] == "+Inf"
        assert 4 <= float(buckets[0][0]) < 4 * 2 ** (1 / 8)
        assert "repro_service_batch_size_min" not in families

    def test_label_values_escaped(self):
        METRICS.incr("odd.counter", 1, labels={"path": 'a"b\\c'})
        text = render_prometheus(METRICS.snapshot())
        families, samples = _parse(text)
        (_, labels, value), = [
            s for s in samples if s[0] == "repro_odd_counter_total"
        ]
        assert value == "1"
        assert labels["path"] == r"a\"b\\c"

    def test_newlines_in_label_values_escape_to_one_line(self):
        # A raw newline in a label value would split the sample across
        # two exposition lines — the strict parser rejects both halves.
        METRICS.incr("odd.counter", 1, labels={"path": 'a\nb\\n"c'})
        text = render_prometheus(METRICS.snapshot())
        families, samples = _parse(text)
        (_, labels, value), = [
            s for s in samples if s[0] == "repro_odd_counter_total"
        ]
        assert value == "1"
        # \n must render as the two-character escape, backslash first
        # (escaping order matters: backslash -> newline -> quote).
        assert labels["path"] == 'a\\nb\\\\n\\"c'

    def test_empty_registry_renders_empty_scrape(self):
        families, samples = _parse(render_prometheus(
            {"counters": {}, "gauges": {}, "histograms": {}}
        ))
        assert families == {} and samples == []


class TestLatencyHistogramRendering:
    def test_buckets_are_cumulative_with_inf_terminal(self):
        for ms in (0.5, 2.0, 2.1, 50.0):
            METRICS.observe("service.request_seconds", ms / 1000,
                            labels={"stage": "total"})
        METRICS.observe("service.request_seconds", 0.001,
                        labels={"stage": "execute"})
        families, samples = _parse(render_prometheus(METRICS.snapshot()))
        metric = "repro_service_request_seconds"
        assert families[metric] == "histogram"

        total_buckets = [
            (float(labels["le"]), int(value))
            for name, labels, value in samples
            if name == f"{metric}_bucket" and labels["stage"] == "total"
            and labels["le"] != "+Inf"
        ]
        bounds = [b for b, _ in total_buckets]
        counts = [c for _, c in total_buckets]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts), "bucket counts must be cumulative"
        inf = [
            int(value) for name, labels, value in samples
            if name == f"{metric}_bucket" and labels["stage"] == "total"
            and labels["le"] == "+Inf"
        ]
        count = [
            int(value) for name, labels, value in samples
            if name == f"{metric}_count" and labels["stage"] == "total"
        ]
        assert inf == count == [4]
        assert counts[-1] == 4
        (total_sum,) = [
            float(value) for name, labels, value in samples
            if name == f"{metric}_sum" and labels["stage"] == "total"
        ]
        assert math.isclose(total_sum, 0.0546, rel_tol=1e-6)

    def test_quantile_consistency_with_board(self):
        for i in range(100):
            METRICS.observe("service.request_seconds", 0.001 * (i + 1),
                            labels={"stage": "total"})
        snap = METRICS.snapshot()
        _, samples = _parse(render_prometheus(snap))
        series = [
            (float(labels["le"]), int(value))
            for name, labels, value in samples
            if name == "repro_service_request_seconds_bucket"
            and labels["le"] != "+Inf"
        ]
        # The exposed bucket holding the p95 must match the registry's
        # own estimate (same data, same buckets).
        p95 = quantile(
            snap["histograms"]["service.request_seconds{stage=total}"], 0.95)
        rank = 95
        holding = next(b for b, c in series if c >= rank)
        assert math.isclose(min(holding, 0.1), p95, rel_tol=1e-6)
