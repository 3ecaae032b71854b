"""Sampling profiler: fold algebra, env resolution, both backends, span
attribution, and the collapsed-stack export."""

from __future__ import annotations

import importlib
import time

import pytest

from repro.telemetry import enable_tracing, span
from repro.telemetry.profiler import (
    DEFAULT_HZ,
    NO_SPAN,
    SPAN_PREFIX,
    ProfileData,
    SamplingProfiler,
    profile_enabled,
    resolve_profile_hz,
    write_profile_folded,
)

telemetry_log = importlib.import_module("repro.telemetry.log")


def busy(seconds: float) -> int:
    """CPU-bound spin the sampler can catch."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(i * i for i in range(200))
    return acc


class TestEnvResolution:
    def test_profile_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert profile_enabled() is False

    @pytest.mark.parametrize("raw", ["1", "true", "on", "YES"])
    def test_profile_truthy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        assert profile_enabled() is True

    @pytest.mark.parametrize("raw", ["0", "false", "off", "no", ""])
    def test_profile_falsy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        assert profile_enabled() is False

    def test_unparseable_profile_warns_once(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG", "info")
        monkeypatch.setenv("REPRO_PROFILE", "maybe")
        monkeypatch.setattr(telemetry_log, "_WARNED_ENV", set())
        assert profile_enabled() is False
        err = capsys.readouterr().err
        assert "REPRO_PROFILE" in err and "'maybe'" in err
        assert profile_enabled() is False
        assert capsys.readouterr().err == ""

    def test_hz_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE_HZ", raising=False)
        assert resolve_profile_hz() == DEFAULT_HZ
        monkeypatch.setenv("REPRO_PROFILE_HZ", "250")
        assert resolve_profile_hz() == 250
        assert resolve_profile_hz(10) == 10  # explicit argument wins

    @pytest.mark.parametrize("raw", ["fast", "-5", "0", "1.5"])
    def test_bad_hz_warns_once_and_keeps_default(
        self, monkeypatch, capsys, raw
    ):
        monkeypatch.setenv("REPRO_LOG", "info")
        monkeypatch.setenv("REPRO_PROFILE_HZ", raw)
        monkeypatch.setattr(telemetry_log, "_WARNED_ENV", set())
        assert resolve_profile_hz() == DEFAULT_HZ
        err = capsys.readouterr().err
        assert "REPRO_PROFILE_HZ" in err and repr(raw) in err
        assert resolve_profile_hz() == DEFAULT_HZ
        assert capsys.readouterr().err == ""


class TestProfileData:
    def test_record_total_and_folded_lines(self):
        data = ProfileData()
        data.record("span:a;m:f;m:g")
        data.record("span:a;m:f;m:g")
        data.record("span:b;m:h")
        assert data.total == 3
        assert data.folded_lines() == [
            "span:a;m:f;m:g 2",
            "span:b;m:h 1",
        ]

    def test_span_table_self_vs_cumulative(self):
        data = ProfileData()
        # f is on-stack for all 5 samples of span a, the leaf for 2.
        data.samples = {
            "span:a;m:f;m:g": 3,
            "span:a;m:f": 2,
            "span:b;m:h": 1,
        }
        table = data.span_table()
        assert [entry["span"] for entry in table] == ["a", "b"]
        functions = {
            row["function"]: row for row in table[0]["functions"]
        }
        assert functions["m:f"]["cum"] == 5
        assert functions["m:f"]["self"] == 2
        assert functions["m:g"]["cum"] == 3
        assert functions["m:g"]["self"] == 3
        assert table[0]["samples"] == 5

    def test_recursive_frames_count_cum_once(self):
        data = ProfileData()
        data.samples = {"span:a;m:f;m:f;m:f": 4}
        table = data.span_table()
        row = table[0]["functions"][0]
        assert row["function"] == "m:f"
        assert row["cum"] == 4  # not 12

    def test_span_table_truncates_to_top_functions(self):
        data = ProfileData()
        for i in range(20):
            data.samples[f"span:a;m:f{i}"] = 1
        assert len(data.span_table(top_functions=5)[0]["functions"]) == 5


class TestSamplingBackends:
    def test_sigprof_collects_and_attributes_spans(self):
        profiler = SamplingProfiler(hz=200)
        enable_tracing()
        assert profiler.start() == "sigprof"
        try:
            with span("profiled.work"):
                busy(0.3)
        finally:
            profiler.stop()
        assert profiler.mode is None
        assert profiler.active is False
        assert profiler.data.total > 0
        attributed = [
            key for key in profiler.data.samples
            if key.startswith(SPAN_PREFIX + "profiled.work;")
        ]
        assert attributed, profiler.data.samples
        # Stacks carry real frame labels (module:qualname).
        assert any("busy" in key for key in attributed)

    def test_thread_backend_samples_all_threads(self, monkeypatch):
        monkeypatch.setattr(
            SamplingProfiler, "_sigprof_available", staticmethod(lambda: False)
        )
        profiler = SamplingProfiler(hz=200)
        assert profiler.start() == "thread"
        try:
            busy(0.3)
        finally:
            profiler.stop()
        assert profiler.data.total > 0
        assert all(
            key.startswith(SPAN_PREFIX) for key in profiler.data.samples
        )
        # No span open -> the (space-sanitized) no-span label.
        no_span = NO_SPAN.replace(" ", "_")
        assert any(
            key.startswith(SPAN_PREFIX + no_span)
            for key in profiler.data.samples
        )

    def test_start_is_idempotent_and_stop_twice_safe(self):
        profiler = SamplingProfiler(hz=50)
        first = profiler.start()
        assert profiler.start() == first
        profiler.stop()
        profiler.stop()
        assert profiler.mode is None
        assert profiler.last_mode == first

    def test_inactive_profiler_has_zero_cost_surface(self):
        profiler = SamplingProfiler()
        assert profiler.active is False
        assert profiler.data.total == 0
        record = profiler.manifest_record()
        assert record["enabled"] is False
        assert record["mode"] is None
        assert record["samples"] == 0
        assert record["spans"] == []


class TestManifestRecord:
    def test_record_after_sampling(self):
        profiler = SamplingProfiler(hz=200)
        profiler.start()
        busy(0.2)
        profiler.stop()
        record = profiler.manifest_record(top_functions=3)
        assert record["enabled"] is True
        assert record["mode"] in ("sigprof", "thread")
        assert record["hz"] == 200
        assert record["samples"] == profiler.data.total > 0
        assert record["spans"]
        assert all(len(e["functions"]) <= 3 for e in record["spans"])


class TestFoldedExport:
    def test_write_folded_format(self, tmp_path):
        data = ProfileData()
        data.samples = {"span:a;m:f;m:g": 7, "span:b;m:h": 2}
        path = write_profile_folded(tmp_path / "profile.folded", data)
        text = path.read_text()
        assert text == "span:a;m:f;m:g 7\nspan:b;m:h 2\n"
        # flamegraph.pl contract: `stack count`, stack frames ;-separated,
        # no spaces inside the stack.
        for line in text.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_write_empty_profile_is_empty_file(self, tmp_path):
        path = write_profile_folded(tmp_path / "empty.folded", ProfileData())
        assert path.read_text() == ""
