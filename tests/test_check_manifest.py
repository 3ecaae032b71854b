"""scripts/check_manifest.py: trace checks over a real traced run, and
errors that name the span log's file and line."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.telemetry import (
    FLIGHT,
    build_manifest,
    disable_tracing,
    enable_tracing,
    new_span_id,
    new_trace_id,
    span,
    trace_enabled,
    write_manifest,
    write_trace_jsonl,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "check_manifest", REPO_ROOT / "scripts" / "check_manifest.py"
)
check_manifest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_manifest)


@pytest.fixture
def traced():
    was_enabled = trace_enabled()
    FLIGHT.reset()
    enable_tracing()
    yield
    if not was_enabled:
        disable_tracing()
    FLIGHT.reset()


def _stage() -> None:
    with span("check.stage") as sp:
        sp.add("items", 1)


def _write_run(tmp_path, records):
    """A manifest + trace.jsonl pair as the CLI writes them."""
    write_trace_jsonl(tmp_path / "trace.jsonl", records)
    manifest = build_manifest(extra={"trace_file": "trace.jsonl"},
                              spans=records)
    return write_manifest(tmp_path / "manifest.json", manifest)


def _record(span_id, parent_id=None, trace_id="a" * 32):
    return {"name": "stage", "trace_id": trace_id, "span_id": span_id,
            "parent_id": parent_id, "duration_ms": 1.0}


def test_traced_serial_stages_pass_require_trace(tmp_path, traced, capsys):
    with span("experiment:check"):
        for _ in range(2):
            with span("check.section"):
                for _ in range(5):
                    _stage()
    records = FLIGHT.since()
    assert len(records) == 13
    path = _write_run(tmp_path, records)
    assert check_manifest.main([str(path), "--require-trace",
                                "--min-stages", "3"]) == 0
    out = capsys.readouterr().out
    assert f"trace: {len(records)} spans across 1 trace(s), 1 root(s)" in out


def test_corrupt_line_names_file_and_line(tmp_path, capsys):
    path = _write_run(tmp_path, [])
    (tmp_path / "trace.jsonl").write_text(
        json.dumps(_record(new_span_id())) + "\n{\"name\": \"trunc\n")
    assert check_manifest.main([str(path), "--require-trace"]) == 1
    err = capsys.readouterr().err
    assert "trace.jsonl:2: corrupt span record" in err
    assert "no spans recorded" not in err


def test_unreadable_trace_file_named(tmp_path, capsys):
    manifest = build_manifest(extra={"trace_file": "missing.jsonl"},
                              spans=[])
    path = write_manifest(tmp_path / "manifest.json", manifest)
    assert check_manifest.main([str(path), "--require-trace"]) == 1
    err = capsys.readouterr().err
    assert "cannot read trace_file 'missing.jsonl'" in err


def test_duplicate_span_id_fails(tmp_path, capsys):
    root, dup = new_span_id(), new_span_id()
    trace_id = new_trace_id()
    records = [_record(root, trace_id=trace_id),
               _record(dup, root, trace_id),
               _record(dup, root, trace_id)]
    path = _write_run(tmp_path, records)
    assert check_manifest.main([str(path), "--require-trace"]) == 1
    assert f"duplicate span_id '{dup}'" in capsys.readouterr().err
