"""Manifest build/validate round trip, span rollup, JSONL trace files."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import default_config
from repro.telemetry import (
    METRICS,
    MANIFEST_SCHEMA_NAME,
    build_manifest,
    config_hash,
    enable_tracing,
    read_trace_jsonl,
    render_span_tree,
    span,
    span_rollup,
    validate_manifest,
    write_manifest,
    write_trace_jsonl,
)
from repro.telemetry.flightrec import nest


def _run_fake_pipeline():
    enable_tracing()
    with span("experiment:test"):
        with span("workload.build", circuit="s27"):
            with span("fault.sample") as sp:
                sp.add("responses", 4)
        with span("diagnose", scheme="two-step") as sp:
            sp.add("faults", 4)
    METRICS.incr("cache.misses", 1, labels={"kind": "workload"})
    METRICS.incr("diagnosis.faults", 4)


class TestManifestRoundTrip:
    def test_build_validate_write_read(self, tmp_path):
        _run_fake_pipeline()
        config = default_config(num_faults=4, num_faults_large=4)
        manifest = build_manifest(config=config, seed=config.fault_seed,
                                  extra={"trace_file": "trace.jsonl"})
        assert validate_manifest(manifest) == []
        assert manifest["schema"] == MANIFEST_SCHEMA_NAME
        assert manifest["seed"] == config.fault_seed
        assert manifest["config_hash"] == config_hash(config)
        path = write_manifest(tmp_path / "manifest.json", manifest)
        loaded = json.loads(path.read_text())
        assert validate_manifest(loaded) == []
        names = {row["name"] for row in loaded["span_rollup"]}
        assert {"experiment:test", "workload.build", "fault.sample",
                "diagnose"} <= names
        assert loaded["metrics"]["counters"]["diagnosis.faults"] == 4

    def test_env_knobs_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_MAX", "3")
        manifest = build_manifest()
        assert manifest["env"]["REPRO_BATCH_MAX"] == "3"
        assert "REPRO_CACHE" in manifest["env"]

    def test_config_hash_stable_and_sensitive(self):
        a = default_config(num_faults=4, num_faults_large=4)
        b = default_config(num_faults=4, num_faults_large=4)
        c = default_config(num_faults=5, num_faults_large=5)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_manifest([]) != []
        assert validate_manifest(None) != []

    def test_reports_missing_and_mistyped_fields(self):
        manifest = build_manifest()
        del manifest["git_sha"]
        manifest["span_rollup"] = "nope"
        errors = validate_manifest(manifest)
        assert any("git_sha: missing" in e for e in errors)
        assert any("span_rollup" in e for e in errors)

    def test_rejects_future_schema_version(self):
        manifest = build_manifest()
        manifest["schema_version"] = 999
        assert any("newer" in e for e in validate_manifest(manifest))


#: The ``kernels`` record a v2/v3 manifest carried.
V3_KERNELS = {"gate_eval": "soa", "fault_sim": "batched", "fault_batch": 64,
              "diagnosis": "fused", "diagnosis_chunk": 256}


class TestKernelsSchemaV4:
    """v4 dropped the ``kernels`` record (one kernel per layer, nothing
    to select); v2/v3 manifests still need theirs."""

    def test_built_manifest_has_no_kernels_record(self):
        manifest = build_manifest()
        assert "kernels" not in manifest
        assert validate_manifest(manifest) == []

    def test_v3_manifest_with_kernels_validates(self):
        manifest = build_manifest()
        manifest["schema_version"] = 3
        manifest["kernels"] = dict(V3_KERNELS)
        assert validate_manifest(manifest) == []

    def test_v3_manifest_missing_kernels_rejected(self):
        manifest = build_manifest()
        manifest["schema_version"] = 3
        assert "kernels: missing" in validate_manifest(manifest)

    def test_v3_kernels_mistyped_fields_rejected(self):
        manifest = build_manifest()
        manifest["schema_version"] = 3
        manifest["kernels"] = {"gate_eval": 1}
        errors = validate_manifest(manifest)
        assert any("kernels.gate_eval" in e for e in errors)
        assert "kernels.fault_sim: missing" in errors


class TestProfileSchemaV3:
    """v3 added the required ``profile`` record; v2 manifests (written
    before the profiler existed) must keep validating without one."""

    def test_built_manifest_is_v3_with_profile(self):
        manifest = build_manifest()
        # v4 keeps the v3 profile requirement.
        assert manifest["schema_version"] == 4
        profile = manifest["profile"]
        assert isinstance(profile["enabled"], bool)
        assert isinstance(profile["samples"], int)
        assert isinstance(profile["spans"], list)
        assert validate_manifest(manifest) == []

    def test_v2_manifest_without_profile_still_validates(self):
        manifest = build_manifest()
        manifest["schema_version"] = 2
        manifest["kernels"] = dict(V3_KERNELS)
        del manifest["profile"]
        assert validate_manifest(manifest) == []

    def test_v3_manifest_missing_profile_rejected(self):
        manifest = build_manifest()
        del manifest["profile"]
        errors = validate_manifest(manifest)
        assert any("profile" in e and "schema v3" in e for e in errors)

    def test_v3_profile_wrong_type_rejected(self):
        manifest = build_manifest()
        manifest["profile"] = "lots of samples"
        assert any("profile" in e for e in validate_manifest(manifest))

    def test_v3_profile_mistyped_fields_rejected(self):
        manifest = build_manifest()
        manifest["profile"] = {"enabled": "yes", "samples": 3.5}
        errors = validate_manifest(manifest)
        assert any("profile.enabled" in e for e in errors)
        assert any("profile.samples" in e for e in errors)
        assert any("profile.spans: missing" in e for e in errors)

    def test_write_read_roundtrip_keeps_profile(self, tmp_path):
        from repro.telemetry import PROFILER

        PROFILER.data.record("span:experiment:test;m:f")
        manifest = build_manifest()
        path = write_manifest(tmp_path / "manifest.json", manifest)
        loaded = json.loads(path.read_text())
        assert validate_manifest(loaded) == []
        assert loaded["profile"]["samples"] >= 1
        assert loaded["profile"]["spans"][0]["span"] == "experiment:test"


class TestRollup:
    def test_rollup_aggregates_by_name(self):
        enable_tracing()
        for _ in range(3):
            with span("diagnose") as sp:
                sp.add("faults", 2)
        rollup = {row["name"]: row for row in span_rollup()}
        assert rollup["diagnose"]["count"] == 3
        assert rollup["diagnose"]["counters"] == {"faults": 6}

    def test_self_time_excludes_children(self):
        import time

        enable_tracing()
        with span("parent"):
            with span("child"):
                time.sleep(0.005)
        rollup = {row["name"]: row for row in span_rollup()}
        assert rollup["parent"]["self_s"] <= rollup["parent"]["wall_s"]
        assert rollup["child"]["wall_s"] >= 0.004

    def test_render_tree_mentions_stages(self):
        _run_fake_pipeline()
        tree = render_span_tree()
        assert "experiment:test" in tree
        assert "workload.build" in tree
        assert "circuit=s27" in tree


class TestTraceJsonl:
    def test_jsonl_roundtrip(self, tmp_path):
        _run_fake_pipeline()
        path = write_trace_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # one flat record per span
        assert all("children" not in json.loads(line) for line in lines)
        records = read_trace_jsonl(path)
        (root,) = nest(records)
        assert root["name"] == "experiment:test"
        assert [c["name"] for c in root["children"]] == [
            "workload.build", "diagnose"
        ]
        # The rollup over the reloaded records matches the live one.
        assert span_rollup(records) == span_rollup()

    def test_corrupt_line_named(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "ok", "span_id": "a"}\n[1, 2]\n')
        with pytest.raises(ValueError, match="line 2"):
            read_trace_jsonl(path)
