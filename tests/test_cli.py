"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENT_RUNNERS, diagnose_main, experiment_main, main


class TestDiagnose:
    def test_basic_run(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "5")
        code = diagnose_main(["s953", "--faults", "5", "--partitions", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "s953" in out
        assert "DR =" in out
        assert "sound: 5/5" in out

    def test_prune_and_verbose(self, capsys):
        code = diagnose_main(
            ["s953", "--faults", "3", "--prune", "--verbose", "--scheme", "random"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert "candidates=" in out

    def test_unknown_circuit_raises(self):
        with pytest.raises(KeyError):
            diagnose_main(["nope", "--faults", "1"])

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            diagnose_main(["s953", "--scheme", "magic"])


class TestExperiment:
    def test_figure3(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "6")
        monkeypatch.setenv("REPRO_FAULTS_LARGE", "3")
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        code = experiment_main(["figure3"])
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_faults_override(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        code = experiment_main(["table1", "--faults", "5"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiment_main(["table99"])

    def test_profiled_traced_run_exports_and_stats_renders(
        self, capsys, monkeypatch, tmp_path
    ):
        """--quick --profile --trace end to end: non-empty collapsed-stack
        file, schema-v3 manifest with an enabled profile record, and
        `repro stats` rendering the per-span hot-function tables."""
        import json

        from repro import telemetry
        from repro.cli import stats_main
        from repro.experiments.cache import clear_caches

        monkeypatch.setenv("REPRO_SCALE", "0.1")
        # A cache-warm --quick run spends too little CPU for the default
        # 97 Hz to land a sample reliably; cold caches + a high rate make
        # the sampler deterministic enough to assert on.
        monkeypatch.setenv("REPRO_PROFILE_HZ", "2000")
        clear_caches()
        monkeypatch.chdir(tmp_path)
        was_enabled = telemetry.trace_enabled()
        telemetry.FLIGHT.reset()
        try:
            code = experiment_main(["table1", "--quick", "--profile",
                                    "--trace"])
        finally:
            telemetry.PROFILER.stop()
            if not was_enabled:
                telemetry.disable_tracing()
            telemetry.FLIGHT.reset()
        assert code == 0
        folded = (tmp_path / "profile.folded").read_text()
        assert folded.strip(), "profiler collected no samples"
        assert all(
            line.rpartition(" ")[2].isdigit()
            for line in folded.strip().splitlines()
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert telemetry.validate_manifest(manifest) == []
        assert manifest["schema_version"] == 4
        assert manifest["profile"]["enabled"] is True
        assert manifest["profile"]["samples"] > 0
        assert manifest["profile_file"] == "profile.folded"
        telemetry.PROFILER.data.clear()
        capsys.readouterr()
        assert stats_main([str(tmp_path / "manifest.json")]) == 0
        out = capsys.readouterr().out
        # Sample counts on a --quick run are tiny, so don't pin which span
        # got them — just that the per-span hot-function tables rendered.
        assert "Profile:" in out
        assert "self %" in out
        # The span log (one record per line) summarizes too.
        assert stats_main([str(tmp_path / "trace.jsonl")]) == 0
        assert "diagnose" in capsys.readouterr().out

    def test_all_runners_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "figure3", "figure5",
            "clustering", "ablation-intervals", "ablation-groups",
            "ablation-aliasing", "ablation-deterministic",
            "ablation-binary-search", "extension-vectors",
            "extension-scan-order", "extension-multi-core", "ablation-patterns",
            "extension-time", "extension-schedule", "extension-atpg",
            "ablation-error-model",
        }
        assert set(EXPERIMENT_RUNNERS) == expected


class TestMain:
    def test_dispatch_requires_command(self, capsys):
        assert main([]) == 2

    def test_dispatch_diagnose(self, capsys):
        assert main(["diagnose", "s953", "--faults", "2"]) == 0


class TestTraceExport:
    def test_wrapped_ring_logs_lost_records(self, capsys, tmp_path,
                                            monkeypatch):
        """The --trace export reads the flight recorder ring back; when
        the run filed more records than the ring holds, it says so."""
        import argparse
        import json

        from repro import telemetry
        from repro.cli import _export_run_telemetry

        monkeypatch.setenv("REPRO_LOG", "info")
        monkeypatch.chdir(tmp_path)
        was_enabled = telemetry.trace_enabled()
        capacity = telemetry.FLIGHT.capacity
        telemetry.FLIGHT.resize(4)
        mark = telemetry.FLIGHT.recorded
        telemetry.enable_tracing()
        try:
            for _ in range(10):
                with telemetry.span("stage"):
                    pass
            args = argparse.Namespace(trace_out=None, manifest=None)
            _export_run_telemetry(args, None, mark)
        finally:
            telemetry.FLIGHT.resize(capacity)
            telemetry.FLIGHT.reset()
            if not was_enabled:
                telemetry.disable_tracing()
        assert "6 span records were lost" in capsys.readouterr().err
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["stage"] * 4


class TestStatsRobustness:
    """`repro stats` must give a clear error, never a traceback, on the
    debris a crashed traced run leaves behind."""

    def test_missing_file(self, capsys, tmp_path):
        from repro.cli import stats_main

        assert stats_main([str(tmp_path / "gone.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_empty_manifest(self, capsys, tmp_path):
        from repro.cli import stats_main

        empty = tmp_path / "manifest.json"
        empty.write_text("")
        assert stats_main([str(empty)]) == 2
        err = capsys.readouterr().err
        assert "empty" in err

    def test_truncated_manifest(self, capsys, tmp_path):
        from repro.cli import stats_main

        truncated = tmp_path / "manifest.json"
        truncated.write_text('{"schema": "repro-run-manifest", "metri')
        assert stats_main([str(truncated)]) == 2
        err = capsys.readouterr().err
        assert "truncated" in err

    def test_manifest_holding_wrong_type(self, capsys, tmp_path):
        from repro.cli import stats_main

        wrong = tmp_path / "manifest.json"
        wrong.write_text("[1, 2, 3]")
        assert stats_main([str(wrong)]) == 2
        assert "manifest object" in capsys.readouterr().err

    def test_truncated_trace_jsonl(self, capsys, tmp_path):
        from repro.cli import stats_main

        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"name": "diagnose", "t0": 0.0, "t1"')
        assert stats_main([str(trace)]) == 2
        assert "span log" in capsys.readouterr().err

    def test_empty_trace_jsonl(self, capsys, tmp_path):
        from repro.cli import stats_main

        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        assert stats_main([str(trace)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_manifest_with_spans_but_no_metrics(self, capsys, tmp_path):
        """A manifest recording spans without a metrics section is a
        partial export: clear exit-2 error, never a silent half-summary."""
        import json

        from repro import telemetry
        from repro.cli import stats_main

        telemetry.enable_tracing()
        with telemetry.span("experiment:test"):
            pass
        manifest = telemetry.build_manifest()
        telemetry.disable_tracing()
        telemetry.FLIGHT.reset()
        del manifest["metrics"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest, default=repr))
        assert stats_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "span(s) but no metrics section" in err
        assert "Traceback" not in err


class TestStatsDiskCache:
    """`repro stats --disk-cache` renders the persistent store and turns
    every unusable-directory case into a clear exit-2 error line."""

    def _populate(self, root, monkeypatch):
        from repro.experiments import cache_disk

        monkeypatch.setenv("REPRO_DISK_CACHE", str(root))
        cache_disk.store("workload", ("s27", 1.0, 64, 0, 5), {"x": 1})
        cache_disk.store("partitions", ("two-step", 9, 3, 4), [1, 2])

    def test_summary_renders_kinds(self, capsys, tmp_path, monkeypatch):
        from repro.cli import stats_main

        self._populate(tmp_path / "dc", monkeypatch)
        assert stats_main(["--disk-cache", str(tmp_path / "dc")]) == 0
        out = capsys.readouterr().out
        assert "Disk cache" in out
        assert "workload" in out and "partitions" in out
        assert "total" in out

    def test_env_dir_used_when_flag_bare(self, capsys, tmp_path, monkeypatch):
        from repro.cli import stats_main

        self._populate(tmp_path / "dc", monkeypatch)
        assert stats_main(["--disk-cache"]) == 0
        assert "workload" in capsys.readouterr().out

    def test_missing_dir_clear_error(self, capsys, tmp_path, monkeypatch):
        from repro.cli import stats_main

        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        assert stats_main(["--disk-cache", str(tmp_path / "absent")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does not exist" in err

    def test_unconfigured_clear_error(self, capsys, monkeypatch):
        from repro.cli import stats_main

        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        assert stats_main(["--disk-cache"]) == 2
        assert "no disk cache configured" in capsys.readouterr().err

    def test_corrupt_entries_warned_not_fatal(self, capsys, tmp_path, monkeypatch):
        from repro.cli import stats_main

        root = tmp_path / "dc"
        self._populate(root, monkeypatch)
        (root / "workload-ffffffffff.rpdc").write_bytes(b"not an entry")
        assert stats_main(["--disk-cache", str(root)]) == 0
        captured = capsys.readouterr()
        assert "warning: 1 unreadable entry" in captured.err

    def test_no_arguments_at_all_rejected(self, capsys):
        from repro.cli import stats_main

        with pytest.raises(SystemExit):
            stats_main([])
