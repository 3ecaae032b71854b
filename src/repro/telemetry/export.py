"""Telemetry exporters: stderr span tree, JSONL span log, run manifest.

Three consumers, three formats:

* a human watching a run — :func:`render_span_tree`, an indented tree of
  wall/CPU times and counters printed to stderr when tracing is on;
* offline tooling — :func:`write_trace_jsonl`, one span record per line
  (the flight-record shape, parentage by ``parent_id``), consumed by
  ``repro stats``;
* reproducibility audits — :func:`build_manifest` /
  :func:`write_manifest`, a ``manifest.json`` capturing *what ran*
  (git SHA, config hash, seed, env knobs, argv) and *what it cost*
  (metric totals, per-stage span rollup), validated by
  :func:`validate_manifest` against :data:`MANIFEST_SCHEMA`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from .flightrec import FLIGHT, children_index, nest
from .metrics import METRICS
from .profiler import PROFILER

#: A span record's own fields; every other field is a span attribute.
_RECORD_FIELDS = frozenset((
    "name", "kind", "trace_id", "span_id", "parent_id", "key", "pid",
    "start", "duration_ms", "cpu_ms", "status", "links", "counters",
    "children",
))

#: Environment knobs recorded in every manifest (missing ones read "").
ENV_KNOBS = (
    "REPRO_CACHE",
    "REPRO_DISK_CACHE",
    "REPRO_TRACE",
    "REPRO_PROFILE",
    "REPRO_PROFILE_HZ",
    "REPRO_LOG",
    "REPRO_FAULTS",
    "REPRO_FAULTS_LARGE",
    "REPRO_SCALE",
    "REPRO_SERVE_PORT",
    "REPRO_BATCH_MAX",
    "REPRO_QUEUE_DEPTH",
    "REPRO_FLIGHT_SPANS",
)

MANIFEST_SCHEMA_NAME = "repro-run-manifest"
#: v2 added the required ``kernels`` kernel-selection record; v3 adds the
#: required ``profile`` sampling-profiler record (``enabled`` false when
#: the run was not profiled); v4 drops ``kernels`` — each layer has one
#: kernel, so there is no selection left to record.  Older manifests
#: still validate against the rules of the version they declare.
MANIFEST_SCHEMA_VERSION = 4

#: Required manifest keys and the types their values must satisfy.  A
#: deliberately small, dependency-free schema: ``validate_manifest``
#: returns a list of violations (empty = valid).
MANIFEST_SCHEMA: Dict[str, Any] = {
    "schema": str,
    "schema_version": int,
    "created_unix": (int, float),
    "run": dict,
    "git_sha": (str, type(None)),
    "config_hash": (str, type(None)),
    "seed": (int, type(None)),
    "env": dict,
    "metrics": dict,
    "span_rollup": list,
}

#: Required fields of the ``kernels`` kernel-selection record of v2/v3
#: manifests (v4 manifests carry none).
_KERNELS_SCHEMA: Dict[str, Any] = {
    "gate_eval": str,
    "fault_sim": str,
}

#: Required fields of the v3 ``profile`` record (the sampling-profiler
#: summary; the folded stacks themselves live in ``profile.folded``).
_PROFILE_SCHEMA: Dict[str, Any] = {
    "enabled": bool,
    "samples": int,
    "spans": list,
}

_RUN_SCHEMA: Dict[str, Any] = {
    "argv": list,
    "python": str,
    "platform": str,
    "pid": int,
}

_ROLLUP_SCHEMA: Dict[str, Any] = {
    "name": str,
    "count": int,
    "wall_s": (int, float),
    "self_s": (int, float),
    "cpu_s": (int, float),
    "counters": dict,
}


# -- span tree -------------------------------------------------------------
#
# Every function below takes span records (default: the whole flight
# recorder ring) and relates them through the children-by-parent_id index.

Records = Optional[Sequence[Dict[str, Any]]]


def _records(records: Records) -> List[Dict[str, Any]]:
    return FLIGHT.since() if records is None else list(records)


def render_span_tree(records: Records = None,
                     max_depth: Optional[int] = None) -> str:
    """Indented tree of span records."""
    lines: List[str] = []
    for root in nest(_records(records)):
        _render_span(root, 0, lines, max_depth)
    return "\n".join(lines)


def _render_span(
    node: Dict[str, Any], depth: int, lines: List[str],
    max_depth: Optional[int],
) -> None:
    if max_depth is not None and depth > max_depth:
        return
    attrs = " ".join(f"{k}={v}" for k, v in node.items()
                     if k not in _RECORD_FIELDS)
    counters = " ".join(f"{k}={v}"
                        for k, v in (node.get("counters") or {}).items())
    detail = " ".join(part for part in (attrs, counters) if part)
    lines.append(
        f"{'  ' * depth}{node['name']:<{max(40 - 2 * depth, 8)}}"
        f" {node.get('duration_ms', 0.0):9.2f}ms"
        f"  cpu {node.get('cpu_ms', 0.0):8.2f}ms"
        + (f"  [{detail}]" if detail else "")
    )
    for child in node["children"]:
        _render_span(child, depth + 1, lines, max_depth)


def print_span_tree(stream: Optional[TextIO] = None,
                    records: Records = None) -> None:
    """Dump the span tree to ``stream`` (default stderr)."""
    tree = render_span_tree(records)
    if tree:
        print(tree, file=stream if stream is not None else sys.stderr)


# -- JSONL -----------------------------------------------------------------

def write_trace_jsonl(path: Union[str, Path], records: Records = None) -> Path:
    """One span record per line."""
    path = Path(path)
    with path.open("w") as handle:
        for record in _records(records):
            handle.write(json.dumps(record, default=repr) + "\n")
    return path


def read_trace_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The span records of a trace.jsonl file; ``ValueError`` (or
    ``json.JSONDecodeError``) names the first bad line."""
    records = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        record = json.loads(line)
        if not isinstance(record, dict) or "name" not in record:
            raise ValueError(f"line {number} is not a span record")
        records.append(record)
    return records


# -- rollup ----------------------------------------------------------------

def span_rollup(records: Records = None) -> List[Dict[str, Any]]:
    """Aggregate span records by name: invocation count, total wall,
    self (minus children) wall, CPU, and summed counters — the hot-path
    table behind ``repro stats``, sorted by self time descending."""
    records = _records(records)
    index = children_index(records)
    table: Dict[str, Dict[str, Any]] = {}
    for record in records:
        name = record["name"]
        row = table.setdefault(
            name,
            {"name": name, "count": 0, "wall_s": 0.0, "self_s": 0.0,
             "cpu_s": 0.0, "counters": {}},
        )
        wall_ms = record.get("duration_ms", 0.0)
        children_ms = sum(child.get("duration_ms", 0.0) for child in
                          index.get(record.get("span_id"), ()))
        row["count"] += 1
        row["wall_s"] += wall_ms / 1000
        row["self_s"] += max(0.0, wall_ms - children_ms) / 1000
        row["cpu_s"] += record.get("cpu_ms", 0.0) / 1000
        for key, value in (record.get("counters") or {}).items():
            row["counters"][key] = row["counters"].get(key, 0) + value
    rows = sorted(table.values(), key=lambda r: r["self_s"], reverse=True)
    for row in rows:
        for key in ("wall_s", "self_s", "cpu_s"):
            row[key] = round(row[key], 9)
    return rows


# -- manifest --------------------------------------------------------------

def git_sha(repo_dir: Optional[Union[str, Path]] = None) -> Optional[str]:
    """HEAD commit of the enclosing repository, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_dir) if repo_dir else None,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def config_hash(config: Any) -> Optional[str]:
    """Stable hash of an experiment configuration (dataclass or dict)."""
    if config is None:
        return None
    if hasattr(config, "__dataclass_fields__"):
        items = {
            name: getattr(config, name)
            for name in sorted(config.__dataclass_fields__)
        }
    elif isinstance(config, dict):
        items = {k: config[k] for k in sorted(config)}
    else:
        items = {"repr": repr(config)}
    blob = json.dumps(items, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def build_manifest(
    config: Any = None,
    seed: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
    spans: Records = None,
) -> Dict[str, Any]:
    """Assemble the run manifest from span records (default: the flight
    recorder ring) and the live registry."""
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_NAME,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "run": {
            "argv": list(sys.argv),
            "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}",
            "pid": os.getpid(),
        },
        "git_sha": git_sha(Path(__file__).resolve().parents[3]),
        "config_hash": config_hash(config),
        "seed": seed,
        "env": {knob: os.environ.get(knob, "") for knob in ENV_KNOBS},
        "profile": PROFILER.manifest_record(),
        "metrics": METRICS.snapshot(),
        "span_rollup": span_rollup(spans),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, default=repr) + "\n")
    return path


def validate_manifest(manifest: Any) -> List[str]:
    """Schema violations of a manifest object (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(manifest, dict):
        return [f"manifest must be an object, got {type(manifest).__name__}"]
    _check_fields(manifest, MANIFEST_SCHEMA, "", errors)
    if errors:
        return errors
    if manifest["schema"] != MANIFEST_SCHEMA_NAME:
        errors.append(
            f"schema: expected {MANIFEST_SCHEMA_NAME!r}, got {manifest['schema']!r}"
        )
    if manifest["schema_version"] > MANIFEST_SCHEMA_VERSION:
        errors.append(
            f"schema_version {manifest['schema_version']} is newer than "
            f"supported {MANIFEST_SCHEMA_VERSION}"
        )
    _check_fields(manifest["run"], _RUN_SCHEMA, "run.", errors)
    if manifest["schema_version"] < 4:
        # v2/v3 manifests recorded which kernel each layer ran.
        _check_fields(manifest, {"kernels": dict}, "", errors)
        if isinstance(manifest.get("kernels"), dict):
            _check_fields(manifest["kernels"], _KERNELS_SCHEMA, "kernels.",
                          errors)
    if manifest["schema_version"] >= 3:
        # v3 made the profiler record mandatory; v2 manifests (written
        # before the profiler existed) stay valid without it.
        profile = manifest.get("profile")
        if not isinstance(profile, dict):
            errors.append("profile: missing or not an object "
                          "(required from schema v3)")
        else:
            _check_fields(profile, _PROFILE_SCHEMA, "profile.", errors)
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(manifest["metrics"].get(section), dict):
            errors.append(f"metrics.{section}: missing or not an object")
    for index, row in enumerate(manifest["span_rollup"]):
        if not isinstance(row, dict):
            errors.append(f"span_rollup[{index}]: not an object")
            continue
        _check_fields(row, _ROLLUP_SCHEMA, f"span_rollup[{index}].", errors)
    return errors


def _check_fields(
    obj: Dict[str, Any], schema: Dict[str, Any], prefix: str, errors: List[str]
) -> None:
    for key, expected in schema.items():
        if key not in obj:
            errors.append(f"{prefix}{key}: missing")
        elif not isinstance(obj[key], expected):
            names = (
                "/".join(t.__name__ for t in expected)
                if isinstance(expected, tuple) else expected.__name__
            )
            errors.append(
                f"{prefix}{key}: expected {names}, "
                f"got {type(obj[key]).__name__}"
            )
