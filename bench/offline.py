"""Offline workloads: the researcher's cold table run and the warm DR sweep.

``paper_cold`` runs :mod:`paper_tables` in a fresh interpreter per
regeneration, so circuit generation, compile + golden simulation, fault
simulation and SOC lifting are all paid, as in a real run.  ``dr_sweep``
builds the six largest circuits' workloads once (set-up) and then times
only the population diagnosis kernel across schemes, group counts and
comparison modes, checking every population against the oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (BENCH_DIR, CheckFailed, child_env, median, peak_rss_mb,
                    percentile, tail_quantile)
from tracing import Recorder, install_offline, load_spans, rollup

SETUPS = 3
PAPER_FAULTS = 300
SWEEP_FAULTS = 500
SWEEP_SCHEMES = ("two-step", "random", "interval", "deterministic")
SWEEP_GROUPS = (4, 8, 16)
#: One 16-partition run per population; its prefix history gives DR for
#: every partition count up to 16, as Figure 5 needs.
SWEEP_PARTITIONS = 16
MISR_WIDTH = 24
CHILD_TIMEOUT_S = 150.0
DIGESTS = BENCH_DIR / "digests.json"
SIX_LARGEST = ("s9234", "s13207", "s15850", "s35932", "s38417", "s38584")


# -- per-layer attribution -----------------------------------------------------

#: metric -> (span name, summed field).
LAYER_FIELDS = {
    "circuit.generate_s": ("circuit.generate", "self_wall"),
    "sim.compile_golden_s": ("sim.compile_golden", "self_wall"),
    "sim.fault_sim_s": ("sim.fault_sim", "self_wall"),
    "sim.faults_simulated": ("sim.fault_sim", "faults"),
    "soc.lift_s": ("soc.lift", "self_wall"),
    "core.superposition_s": ("core.superposition", "self_wall"),
    "core.partitions_s": ("core.partitions", "self_wall"),
    "bist.events_s": ("bist.events", "self_wall"),
    "bist.events": ("bist.events", "events"),
    "core.diagnose_s": ("core.diagnose", "self_wall"),
    "core.diagnose_calls": ("core.diagnose", "calls"),
}


def unit_layers(spans: Sequence[Dict[str, Any]], wall_s: float) -> Dict[str, float]:
    """Per-layer figures of one unit of work (one set-up, sweep or table
    regeneration) lasting ``wall_s``."""
    table = rollup(spans)
    values = {metric: table.get(span, {}).get(field, 0.0)
              for metric, (span, field) in LAYER_FIELDS.items()}
    sim = table.get("sim.fault_sim", {})
    values["sim.detected_frac"] = (sim.get("detected", 0.0) / sim["faults"]
                                   if sim.get("faults") else 0.0)
    diag = table.get("core.diagnose", {})
    values["core.faults_per_call"] = (diag.get("faults", 0.0) / diag["calls"]
                                      if diag.get("calls") else 0.0)
    values["unattributed_s"] = wall_s - sum(r["self_wall"] for r in table.values())
    return values


def combine_units(units: Dict[str, List[Dict[str, float]]]) -> Dict[str, float]:
    """Median over the units of each kind, summed over kinds (each layer
    works in one kind: set-up layers in set-ups, kernels in sweeps)."""
    combined: Dict[str, float] = {}
    for values_list in units.values():
        for metric in values_list[0]:
            value = median([values[metric] for values in values_list])
            combined[metric] = combined.get(metric, 0.0) + value
    return combined


# -- paper_cold ----------------------------------------------------------------


def _spawn(args: List[str]) -> Tuple[float, float, float]:
    """Run ``paper_tables.py`` with ``args``: (wall s, CPU s, peak RSS MB),
    measured from outside through the child's own rusage."""
    cmd = [sys.executable, str(BENCH_DIR / "paper_tables.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    deadline = t0 + CHILD_TIMEOUT_S
    # Reap with wait4 (polling, to keep a timeout) for per-child rusage.
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise CheckFailed(
                f"paper tables did not finish in {CHILD_TIMEOUT_S:.0f} s")
        time.sleep(0.002)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.stderr is not None
    stderr = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    if proc.returncode != 0:
        raise CheckFailed(f"paper tables exited {proc.returncode}: {stderr[-2000:]}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


TABLE_ROW = re.compile(r"^\s*(s\d+)\s+(.*)$")


def parse_tables(rendered: str) -> Dict[str, List[List[str]]]:
    """Rows of each rendered artefact, keyed by its title's first word(s)."""
    tables: Dict[str, List[List[str]]] = {}
    current: Optional[str] = None
    for line in rendered.splitlines():
        if line.startswith(("Table 2", "Table 3", "Figure 5")):
            current = " ".join(line.split()[:2]).rstrip(":")
            tables[current] = []
        elif current is not None:
            match = TABLE_ROW.match(line)
            if match:
                tables[current].append([match.group(1)] + match.group(2).split())
    return tables


def check_tables(rendered: str, faults: int) -> int:
    """Structural checks on the rendered artefacts; returns how many fault
    diagnoses the regeneration ran."""
    tables = parse_tables(rendered)
    for title in ("Table 2", "Table 3", "Figure 5"):
        rows = tables.get(title, [])
        if [row[0] for row in rows] != list(SIX_LARGEST):
            raise CheckFailed(f"{title}: rows {[r[0] for r in rows]}")
    diagnoses = 0
    for title, fault_col, first_dr, schemes_run in (
            ("Table 2", 3, 4, 2), ("Table 3", 2, 3, 4)):
        for row in tables[title]:
            row_faults = int(row[fault_col])
            if not 0 < row_faults <= faults:
                raise CheckFailed(f"{title} {row[0]}: {row_faults} faults")
            dr = [float(v) for v in row[first_dr:first_dr + 4]]
            # Columns: random, two-step, random+prune, two-step+prune.
            if min(dr) < 0 or dr[2] > dr[0] or dr[3] > dr[1]:
                raise CheckFailed(f"{title} {row[0]}: DR values {dr}")
            # Table 3's SOC workloads also feed Figure 5's two schemes.
            diagnoses += schemes_run * row_faults
    for row in tables["Figure 5"]:
        for value in row[1:3]:
            if value != "-" and not 1 <= int(value) <= 24:
                raise CheckFailed(f"Figure 5 {row[0]}: {value} partitions")
    return diagnoses


def expected_digest(seed: int, faults: int) -> Optional[str]:
    with open(DIGESTS) as handle:
        table = json.load(handle)["paper_cold"]
    if table["faults"] != faults:
        return None
    return table["seeds"].get(str(seed))


def run_paper_cold(seed: int, seconds: float, traced: bool, out_dir: Path,
                   faults: int = PAPER_FAULTS) -> Dict[str, Any]:
    setup_times = [_spawn(["--import-only"])[0] for _ in range(SETUPS)]
    reps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        index = len(reps)
        result_path = out_dir / f"paper_cold-seed{seed}-rep{index}.json"
        spans_path = out_dir / f"paper_cold-seed{seed}-rep{index}.spans.jsonl"
        args = ["--seed", str(seed), "--faults", str(faults),
                "--out", str(result_path)]
        if traced:
            args += ["--spans", str(spans_path)]
        wall, cpu, rss = _spawn(args)
        with open(result_path) as handle:
            child = json.load(handle)
        result_path.unlink()
        spans = []
        if traced:
            spans = load_spans(spans_path)
            if index > 0:
                spans_path.unlink()
        reps.append(dict(child, wall=wall, cpu=cpu, rss=rss, spans=spans))
        elapsed = time.perf_counter() - started
        if elapsed + median([r["wall"] for r in reps]) > seconds:
            break

    rendered = reps[0]["rendered"]
    if any(r["rendered"] != rendered for r in reps):
        raise CheckFailed("paper tables differ between regenerations")
    digest = hashlib.sha256(rendered.encode()).hexdigest()
    expected = expected_digest(seed, faults)
    if expected is not None and digest != expected:
        raise CheckFailed(f"paper tables digest {digest} != committed {expected}")
    diagnoses = check_tables(rendered, faults)

    walls = [r["wall"] for r in reps]
    hits, misses = reps[0]["cache_hits"], reps[0]["cache_misses"]
    layers = {}
    if traced:
        layers = combine_units(
            {"measure": [unit_layers(r["spans"], r["wall"]) for r in reps]})
    layers["experiments.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    return {
        "attempted": len(reps),
        "failed": 0,
        "metrics": {
            "setup_s": median(setup_times),
            "p50_ms": median(walls) * 1000,
            "p99_ms": percentile(walls, tail_quantile(len(walls))) * 1000,
            "diagnoses_per_s": diagnoses / median(walls),
            "cpu_us_per_diagnosis": median([r["cpu"] for r in reps]) / diagnoses * 1e6,
            "peak_rss_mb": max(r["rss"] for r in reps),
        },
        "layers": layers,
        "detail": {
            "setup_times_s": setup_times,
            "tables_s": walls,
            "stage_s": [r["stage_s"] for r in reps],
            "diagnoses": diagnoses,
            "digest": digest,
            "digest_checked": expected is not None,
            "rendered": rendered,
        },
    }


# -- dr_sweep ------------------------------------------------------------------


def _sweep_setup(seed: int, faults: int, circuits: Sequence[str]):
    """Build the circuits' fault workloads, their partition sets and the
    compactor, from empty caches."""
    from repro.bist.misr import LinearCompactor
    from repro.circuit import library
    from repro.experiments import cache
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_circuit_workload, scheme_partitions

    library.clear_cache()
    cache.clear()
    config = ExperimentConfig(num_faults=faults, num_faults_large=faults,
                              fault_seed=seed)
    populations = []
    for name in circuits:
        workload = build_circuit_workload(name, config)
        for scheme in SWEEP_SCHEMES:
            for groups in SWEEP_GROUPS:
                partitions = scheme_partitions(
                    scheme, workload.scan_config.max_length, groups,
                    SWEEP_PARTITIONS, lfsr_degree=config.lfsr_degree)
                populations.append((f"{name}/{scheme}/{groups}g", workload,
                                    partitions))
    compactor = LinearCompactor(MISR_WIDTH, 1)
    return populations, compactor


def run_dr_sweep(seed: int, seconds: float, traced: bool, out_dir: Path,
                 faults: int = SWEEP_FAULTS,
                 circuits: Sequence[str] = SIX_LARGEST) -> Dict[str, Any]:
    import numpy as np

    from repro.core import diagnosis_batch
    from repro.experiments import cache
    from oracle import check_results, oracle_candidates

    recorder = Recorder() if traced else None
    if recorder is not None:
        install_offline(recorder)
    units: Dict[str, List[Dict[str, float]]] = {"setup": [], "measure": []}
    try:
        setup_times = []
        for index in range(SETUPS):
            mark = len(recorder.spans) if recorder else 0
            t0 = time.perf_counter()
            populations, compactor = _sweep_setup(seed, faults, circuits)
            setup_times.append(time.perf_counter() - t0)
            if recorder is not None:
                units["setup"].append(unit_layers(recorder.spans[mark:],
                                                  setup_times[-1]))
        stats = cache.stats()
        hits, misses = sum(stats.hits.values()), sum(stats.misses.values())

        oracles: Dict[str, Any] = {}
        call_walls: List[float] = []
        sweeps: List[Tuple[float, float, int]] = []  # wall, cpu, diagnoses
        mispruned = 0
        started = time.perf_counter()
        while True:
            mark = len(recorder.spans) if recorder else 0
            sweep_wall = sweep_cpu = 0.0
            diagnoses = 0
            for label, workload, partitions in populations:
                responses = workload.responses
                scan = workload.scan_config
                failing = [r.failing_cells for r in responses]
                if label not in oracles:
                    # Kept bit-packed between sweeps to bound resident memory.
                    exact = oracle_candidates(failing, scan.chains, partitions)
                    oracles[label] = exact._replace(
                        mask=np.packbits(exact.mask, axis=1))
                packed = oracles[label]
                oracle = packed._replace(mask=np.unpackbits(
                    packed.mask, axis=1, count=scan.num_cells).astype(bool))
                for mode, comp in (("exact", None), ("misr", compactor)):
                    w0, c0 = time.perf_counter(), time.process_time()
                    # Looked up per call, so a traced run reaches the wrapper.
                    results = diagnosis_batch.diagnose_population(
                        responses, scan, partitions, comp)
                    wall = time.perf_counter() - w0
                    sweep_cpu += time.process_time() - c0
                    sweep_wall += wall
                    call_walls.append(wall)
                    diagnoses += len(results)
                    mispruned += check_results(
                        f"dr_sweep {label} {mode}", failing, oracle, results,
                        0 if comp is None else MISR_WIDTH)["mispruned_cells"]
                    del results
            sweeps.append((sweep_wall, sweep_cpu, diagnoses))
            if recorder is not None:
                units["measure"].append(unit_layers(recorder.spans[mark:],
                                                    sweep_wall))
            elapsed = time.perf_counter() - started
            if elapsed + median([s[0] for s in sweeps]) > seconds:
                break
        peak_rss = peak_rss_mb()
    finally:
        if recorder is not None:
            recorder.restore()
    if recorder is not None:
        recorder.dump(out_dir / f"dr_sweep-seed{seed}.spans.jsonl")
        layers = combine_units(units)
    else:
        layers = {}
    layers["experiments.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    layers["bist.misr_mispruned"] = float(mispruned)
    return {
        "attempted": sum(s[2] for s in sweeps),
        "failed": 0,
        "metrics": {
            "setup_s": median(setup_times),
            "p50_ms": median(call_walls) * 1000,
            "p99_ms": percentile(call_walls, tail_quantile(len(call_walls))) * 1000,
            "diagnoses_per_s": median([d / w for w, _, d in sweeps]),
            "cpu_us_per_diagnosis": median([c / d * 1e6 for _, c, d in sweeps]),
            "peak_rss_mb": peak_rss,
        },
        "layers": layers,
        "detail": {
            "setup_times_s": setup_times,
            "sweeps": [{"wall_s": w, "cpu_s": c, "diagnoses": d}
                       for w, c, d in sweeps],
            "populations": len(populations),
            "mispruned_cells": mispruned,
        },
    }
