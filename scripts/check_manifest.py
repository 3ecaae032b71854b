#!/usr/bin/env python
"""Validate a run manifest against the shipped schema.

Used by the CI smoke job: after ``repro-experiment table1 --trace`` this
asserts the emitted ``manifest.json`` is schema-valid, covers enough
pipeline stages, and recorded cache activity.

Exit codes: 0 valid, 1 invalid, 2 unreadable/missing file.

Run:  PYTHONPATH=src python scripts/check_manifest.py manifest.json
      [--min-stages N] [--require-metric NAME ...]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.telemetry import validate_manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="manifest.json to validate")
    parser.add_argument("--min-stages", type=int, default=0,
                        help="require at least N distinct span names in the "
                        "rollup")
    parser.add_argument("--require-metric", action="append", default=[],
                        metavar="NAME",
                        help="require a counter with this name (label-"
                        "insensitive prefix match); repeatable")
    parser.add_argument("--require-profile", action="store_true",
                        help="require an enabled profile record with at "
                        "least one sample (profiled smoke runs)")
    parser.add_argument("--require-trace", action="store_true",
                        help="require every span to carry a valid trace "
                        "context (32-hex trace id, unique 16-hex span id, "
                        "acyclic parentage)")
    args = parser.parse_args(argv)

    path = Path(args.path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{path}: cannot read manifest: {exc}", file=sys.stderr)
        return 2

    errors = validate_manifest(manifest)
    stages = {row.get("name") for row in manifest.get("span_rollup", [])
              if isinstance(row, dict)}
    if args.min_stages and len(stages) < args.min_stages:
        errors.append(
            f"span_rollup: {len(stages)} distinct stages, need "
            f">= {args.min_stages} (got: {sorted(stages)})"
        )
    counters = manifest.get("metrics", {}).get("counters", {})
    if isinstance(counters, dict):
        for name in args.require_metric:
            if not any(k == name or k.startswith(name + "{") for k in counters):
                errors.append(f"metrics.counters: missing {name!r}")
    trace_summary = None
    if args.require_trace:
        try:
            spans = _load_spans(manifest, path)
        except ValueError as exc:
            errors.append(f"spans: {exc}")
        else:
            trace_errors, trace_summary = _check_trace(spans)
            errors.extend(trace_errors)
    if args.require_profile:
        profile = manifest.get("profile")
        if not isinstance(profile, dict) or not profile.get("enabled"):
            errors.append("profile: run was not profiled "
                          "(--require-profile)")
        elif not profile.get("samples"):
            errors.append("profile: profiler ran but collected 0 samples")
    if errors:
        print(f"{path}: INVALID", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print(f"{path}: valid {manifest['schema']} "
          f"v{manifest['schema_version']} ({len(stages)} stages, "
          f"{len(counters)} counters)")
    print(_profile_summary(manifest.get("profile")))
    if trace_summary is not None:
        print(trace_summary)
    return 0


def _load_spans(manifest, manifest_path):
    """The manifest's span records, inline or via its ``trace_file``.

    Manifests stay lean — they embed the aggregated ``span_rollup`` and
    point at the span log through ``trace_file`` (one span record per
    line).  Accept inline ``spans`` too so hand-built manifests can be
    checked without a side file.  Relative ``trace_file`` paths resolve
    against the manifest's directory first (the CLI writes both files
    side by side), then the cwd.  Raises ``ValueError`` naming the file
    (and line) when the span log cannot be read or parsed.
    """
    inline = manifest.get("spans")
    if isinstance(inline, list) and inline:
        return inline
    trace_file = manifest.get("trace_file")
    if not isinstance(trace_file, str) or not trace_file:
        return []
    candidates = [manifest_path.parent / trace_file, Path(trace_file)]
    for candidate in candidates:
        try:
            lines = candidate.read_text().splitlines()
        except OSError:
            continue
        spans = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{candidate}:{number}: corrupt span record ({exc})")
        return spans
    raise ValueError(f"cannot read trace_file {trace_file!r} (tried "
                     + ", ".join(str(c) for c in candidates) + ")")


def _hexid(value, width):
    if not isinstance(value, str) or len(value) != width:
        return False
    try:
        return int(value, 16) != 0
    except ValueError:
        return False


def _check_trace(spans):
    """Validate trace context across the manifest's span records (flat,
    or trees nested through ``children``).

    Returns ``(errors, summary_line)``.  Every span must carry a non-zero
    32-hex ``trace_id`` and a unique non-zero 16-hex ``span_id``; following
    ``parent_id`` links must never revisit a span (dangling parents are
    fine — a client-side parent span lives outside the manifest).
    """
    errors = []
    flat = []

    def walk(node, depth=0):
        if not isinstance(node, dict) or depth > 64:
            return
        flat.append(node)
        for child in node.get("children") or []:
            walk(child, depth + 1)

    for root in spans if isinstance(spans, list) else []:
        walk(root)
    if not flat:
        return (["spans: no spans recorded (--require-trace)"],
                "trace: no spans")

    parents = {}
    for span in flat:
        name = span.get("name", "?")
        trace_id = span.get("trace_id")
        span_id = span.get("span_id")
        if not _hexid(trace_id, 32):
            errors.append(f"spans: {name!r} has invalid trace_id "
                          f"{trace_id!r}")
        if not _hexid(span_id, 16):
            errors.append(f"spans: {name!r} has invalid span_id {span_id!r}")
        elif span_id in parents:
            errors.append(f"spans: duplicate span_id {span_id!r} ({name!r})")
        else:
            parents[span_id] = span.get("parent_id")

    cycles = 0
    for span_id in parents:
        seen = set()
        cursor = span_id
        while cursor is not None and cursor in parents:
            if cursor in seen:
                errors.append(f"spans: parentage cycle through {cursor!r}")
                cycles += 1
                break
            seen.add(cursor)
            cursor = parents[cursor]

    traces = {s.get("trace_id") for s in flat}
    roots = sum(1 for s in flat
                if s.get("parent_id") is None
                or s.get("parent_id") not in parents)
    summary = (f"trace: {len(flat)} spans across {len(traces)} trace(s), "
               f"{roots} root(s), parentage "
               + ("acyclic" if not cycles else f"{cycles} cycle(s)"))
    return errors, summary


def _profile_summary(profile):
    """One line about the v3 ``profile`` record (tolerates v2 manifests)."""
    if not isinstance(profile, dict):
        return "profile: none (schema v2 manifest)"
    if not profile.get("enabled"):
        return "profile: disabled"
    spans = profile.get("spans") or []
    hottest = ""
    if spans and spans[0].get("functions"):
        top = spans[0]
        hottest = (f"; hottest {top['span']}: "
                   f"{top['functions'][0]['function']} "
                   f"({top['functions'][0]['self']} self samples)")
    return (f"profile: {profile.get('samples', 0)} samples "
            f"@ {profile.get('hz', '?')} Hz ({profile.get('mode', '?')} "
            f"mode, {profile.get('dropped', 0)} dropped, "
            f"{len(spans)} spans{hottest})")


if __name__ == "__main__":
    raise SystemExit(main())
