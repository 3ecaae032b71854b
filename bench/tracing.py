"""Span recording around the program's public functions, from outside.

The benchmark adds no instrumentation to ``src/``.  Instead a
:class:`Recorder` replaces a layer's public function with a timing wrapper
at every import site (every loaded ``repro`` module that holds the
function under its name) and restores the originals afterwards.  A span
records its name, wall start, wall and thread-CPU duration, and its parent
span; self time is the duration minus what its child spans cover, so the
per-layer self times of one thread sum to the wrapped wall time.

Spans stay in memory and are written as JSONL when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``counts(args, kwargs, result) -> {field: number}`` adds work counts to a
#: span (faults simulated, events extracted, ...).
Counts = Callable[[tuple, dict, Any], Dict[str, float]]


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, counts: Optional[Counts] = None):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            frame = [next(recorder._ids), 0.0, 0.0]  # id, child wall, child cpu
            stack.append(frame)
            start = time.time()
            w0, c0 = time.perf_counter(), time.thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                wall = time.perf_counter() - w0
                cpu = time.thread_time() - c0
                stack.pop()
                if parent is not None:
                    parent[1] += wall
                    parent[2] += cpu
                record = {
                    "id": frame[0],
                    "parent": parent[0] if parent is not None else None,
                    "name": name,
                    "start": start,
                    "wall": wall,
                    "cpu": cpu,
                    "self_wall": wall - frame[1],
                    "self_cpu": cpu - frame[2],
                    "thread": threading.get_ident(),
                }
                if counts is not None and result is not None:
                    record.update(counts(args, kwargs, result))
                recorder.spans.append(record)

        traced.__wrapped__ = fn
        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch_function(self, module: str, attr: str, name: str,
                       counts: Optional[Counts] = None) -> int:
        """Wrap ``module.attr`` at every loaded ``repro`` import site.

        Modules imported later bind the wrapper from ``module`` itself.
        Returns the number of sites patched.
        """
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(name, original, counts)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)
                sites += 1
        return sites

    def patch_method(self, cls: type, attr: str, name: str,
                     counts: Optional[Counts] = None) -> None:
        """Wrap a method on its class (covers every caller at once);
        classmethods keep their binding."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(name, raw.__func__, counts))
        else:
            wrapped = self.wrap(name, raw, counts)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_module_json(self, module: str, parse: str, encode: str) -> None:
        """Route ``module``'s ``json.loads``/``json.dumps`` through spans
        (the import site of :mod:`json` in that module)."""
        mod = importlib.import_module(module)
        original = mod.json
        proxy = types.ModuleType("json")
        proxy.__dict__.update(original.__dict__)
        proxy.loads = self.wrap(parse, original.loads)
        proxy.dumps = self.wrap(encode, original.dumps)
        self._patches.append((mod, "json", original))
        mod.json = proxy

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def load_spans(path) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def rollup(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed self wall/CPU, summed counts."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for record in spans:
        row = table[record["name"]]
        row["calls"] += 1
        for key, value in record.items():
            if key in ("id", "parent", "name", "start", "thread"):
                continue
            row[key] += value
    return {name: dict(row) for name, row in table.items()}


# -- the program's layers ------------------------------------------------------


def _len_first(field: str) -> Counts:
    return lambda args, kwargs, result: {field: len(args[0])}


def install_offline(recorder: Recorder) -> None:
    """Wrap the offline pipeline's layers: circuit generation, compile +
    golden simulation, fault simulation, SOC lifting, superposition,
    partition generation, event extraction and population diagnosis."""
    from repro.sim.faultsim import FaultSimulator
    from repro.soc.core_wrapper import EmbeddedCore
    from repro.soc.testrail import TestRail

    recorder.patch_function("repro.circuit.library", "get_circuit",
                            "circuit.generate")
    recorder.patch_method(EmbeddedCore, "__init__", "sim.compile_golden")
    recorder.patch_method(
        FaultSimulator, "simulate_faults", "sim.fault_sim",
        lambda args, kwargs, result: {
            "faults": len(result),
            "detected": sum(1 for r in result if r.detected),
        },
    )
    recorder.patch_method(TestRail, "lift_response", "soc.lift")
    recorder.patch_function("repro.core.superposition", "apply_superposition",
                            "core.superposition")
    recorder.patch_function("repro.experiments.runner", "scheme_partitions",
                            "core.partitions")
    recorder.patch_function(
        "repro.bist.session", "collect_population_events", "bist.events",
        lambda args, kwargs, result: {"events": len(result.events)},
    )
    recorder.patch_function("repro.core.diagnosis_batch", "diagnose_population",
                            "core.diagnose", _len_first("faults"))


def install_serve(recorder: Recorder) -> None:
    """Wrap the serve path's layers: JSON + request validation (parse),
    reply payload + JSON (encode), workload resolution, batch execution
    and the population kernel."""
    from repro.service.engine import DiagnosisEngine
    from repro.service.protocol import DiagnoseReply, DiagnoseRequest

    recorder.patch_module_json("repro.service.server", "protocol.parse",
                               "protocol.encode")
    recorder.patch_method(DiagnoseRequest, "from_payload", "protocol.parse")
    recorder.patch_method(DiagnoseReply, "to_payload", "protocol.encode")
    recorder.patch_method(DiagnosisEngine, "resolve", "engine.resolve")
    recorder.patch_method(DiagnosisEngine, "execute_batch",
                          "engine.response_build")
    recorder.patch_function("repro.core.diagnosis_batch", "diagnose_population",
                            "core.diagnose", _len_first("faults"))
