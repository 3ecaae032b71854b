"""Shared experiment machinery: workload construction and scheme evaluation.

A *workload* bundles everything fault-independent — the circuit (or SOC),
its pattern set, the fault-free simulation, and a sampled set of fault
responses.  Partition sets are likewise fault-independent (they are fixed
by LFSR seeds), so each scheme's partitions are generated once and reused
across all faults, exactly as the hardware would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bist.misr import LinearCompactor
from ..bist.scan import ScanConfig
from ..circuit.library import cached_circuit
from ..core.diagnosis import DiagnosisResult, diagnostic_resolution
from ..core.diagnosis_batch import diagnose_population
from ..core.partitions import Partition
from ..core.superposition import apply_superposition
from ..core.two_step import make_partitioner
from ..sim.faultsim import FaultResponse
from ..soc.core_wrapper import DEFAULT_PATTERN_SEED, EmbeddedCore
from ..soc.testrail import TestRail
from ..telemetry import METRICS, debug, span
from . import cache
from .config import ExperimentConfig


@dataclass
class Workload:
    """Fault responses plus the scan configuration they are observed on."""

    name: str
    scan_config: ScanConfig
    responses: List[FaultResponse]
    num_patterns: int

    @property
    def num_cells(self) -> int:
        return self.scan_config.num_cells


def circuit_workload_key(
    circuit_name: str, config: ExperimentConfig, num_patterns: Optional[int] = None
):
    """The memo key :func:`build_circuit_workload` caches under — exposed so
    long-lived callers (the diagnosis service) can ``cache.evict`` exactly
    what the builder stored."""
    patterns = num_patterns or config.num_patterns
    fault_count = config.faults_for(circuit_name)
    return (circuit_name, config.scale, patterns, config.fault_seed, fault_count)


def build_circuit_workload(
    circuit_name: str, config: ExperimentConfig, num_patterns: Optional[int] = None
) -> Workload:
    """Single-scan-chain workload for one benchmark circuit.

    Workloads are pure functions of ``(circuit, scale, num_patterns,
    fault_seed, fault_count)`` and are memoized process-wide — a full
    reproduction run compiles and fault-simulates each benchmark once.
    """
    patterns = num_patterns or config.num_patterns
    fault_count = config.faults_for(circuit_name)
    key = circuit_workload_key(circuit_name, config, patterns)
    return cache.memoized(
        "workload", key,
        lambda: _build_circuit_workload(circuit_name, config, patterns, fault_count),
    )


def _build_circuit_workload(
    circuit_name: str, config: ExperimentConfig, patterns: int, fault_count: int
) -> Workload:
    debug(f"building workload for {circuit_name} ({patterns} patterns, "
          f"{fault_count} faults)")
    with span("workload.build", circuit=circuit_name, patterns=patterns):
        with span("netlist.compile", circuit=circuit_name):
            # EmbeddedCore compiles the netlist and runs the fault-free
            # (golden) pattern-parallel simulation.
            core = EmbeddedCore(
                _get_circuit(circuit_name, config), num_patterns=patterns
            )
        rng = np.random.default_rng(config.fault_seed ^ hash_name(circuit_name))
        with span("fault.sample", circuit=circuit_name) as sp:
            responses = core.sample_fault_responses(fault_count, rng)
            sp.add("responses", len(responses))
    return Workload(
        name=circuit_name,
        scan_config=ScanConfig.single_chain(core.num_cells),
        responses=responses,
        num_patterns=patterns,
    )


def build_soc_workloads(
    soc: TestRail, config: ExperimentConfig
) -> Dict[str, Workload]:
    """One workload per faulty core: faults injected in that core only, with
    responses lifted onto the SOC's meta scan chains (the paper's "only one
    core contains failing scan cells" protocol).  Memoized on the SOC's
    fingerprint plus the fault-sampling knobs."""
    key = (
        cache.soc_fingerprint(soc),
        config.fault_seed,
        tuple(config.faults_for(core.name) for core in soc.cores),
    )
    return cache.memoized(
        "soc-workloads", key, lambda: _build_soc_workloads(soc, config)
    )


def _build_soc_workloads(
    soc: TestRail, config: ExperimentConfig
) -> Dict[str, Workload]:
    workloads: Dict[str, Workload] = {}
    for core_index, core in enumerate(soc.cores):
        debug(f"building SOC workload: {soc.name}/{core.name}")
        with span("workload.build", soc=soc.name, core=core.name):
            local = _core_fault_sample(core, config)
            with span("soc.lift", core=core.name):
                lifted = [soc.lift_response(core_index, r) for r in local]
        workloads[core.name] = Workload(
            name=f"{soc.name}/{core.name}",
            scan_config=soc.scan_config,
            responses=lifted,
            num_patterns=core.num_patterns,
        )
    return workloads


def _core_fault_sample(
    core: EmbeddedCore, config: ExperimentConfig
) -> List[FaultResponse]:
    """A core's sampled fault responses in local cell coordinates.

    A core built from the library circuit with the config's pattern set is
    the circuit workload's core: same netlist object, same golden patterns,
    same RNG seed and fault count.  Its sample is then the circuit
    workload's responses, taken from the memo store instead of simulated
    again.  Any other core samples on itself.
    """
    if (
        core.netlist is cached_circuit(core.name, scale=config.scale)
        and core.num_patterns == config.num_patterns
        and core.pattern_seed == DEFAULT_PATTERN_SEED
    ):
        return build_circuit_workload(core.name, config).responses
    rng = np.random.default_rng(config.fault_seed ^ hash_name(core.name))
    with span("fault.sample", circuit=core.name) as sp:
        local = core.sample_fault_responses(config.faults_for(core.name), rng)
        sp.add("responses", len(local))
    return local


def scheme_partitions(
    scheme: str,
    length: int,
    num_groups: int,
    num_partitions: int,
    lfsr_degree: int = 16,
    seed: Optional[int] = None,
    num_interval_partitions: int = 1,
) -> List[Partition]:
    """The fixed partition sequence a scheme would burn into the BIST flow.

    Memoized on the full partitioner signature; partitions are frozen, so
    the cached list is shared (a fresh outer list guards against callers
    mutating the sequence itself).
    """
    key = (
        scheme, length, num_groups, num_partitions,
        lfsr_degree, seed, num_interval_partitions,
    )
    def build() -> List[Partition]:
        with span("partitions.generate", scheme=scheme, length=length,
                  partitions=num_partitions, groups=num_groups):
            return make_partitioner(
                scheme,
                length,
                num_groups,
                lfsr_degree=lfsr_degree,
                seed=seed,
                num_interval_partitions=num_interval_partitions,
            ).partitions(num_partitions)

    return list(cache.memoized("partitions", key, build))


def shared_compactor(width: int, num_chains: int) -> LinearCompactor:
    """The memoized compactor for ``(width, num_chains)``.  Compactors are
    pure functions of those two; sharing one instance shares its
    impulse-response tables across schemes and experiments."""
    return cache.memoized(
        "compactor", (width, num_chains),
        lambda: LinearCompactor(width, num_chains),
    )


@dataclass
class SchemeEvaluation:
    """DR (and optionally pruned DR) of one scheme over one workload."""

    scheme: str
    dr: float
    dr_pruned: Optional[float]
    results: List[DiagnosisResult] = field(repr=False, default_factory=list)
    pruned_results: List[DiagnosisResult] = field(repr=False, default_factory=list)


def evaluate_scheme(
    workload: Workload,
    scheme: str,
    num_partitions: int,
    num_groups: int,
    config: ExperimentConfig,
    with_pruning: bool = False,
    compactor: Optional[LinearCompactor] = None,
    num_interval_partitions: int = 1,
) -> SchemeEvaluation:
    """Diagnose every sampled fault of the workload under one scheme.

    The whole population goes through the fused diagnosis kernel
    (:func:`repro.core.diagnosis_batch.diagnose_population`).  Results
    and DR are bit-identical to the per-fault ``diagnose`` loop.
    """
    partitions = scheme_partitions(
        scheme,
        workload.scan_config.max_length,
        num_groups,
        num_partitions,
        lfsr_degree=config.lfsr_degree,
        num_interval_partitions=num_interval_partitions,
    )
    if compactor is None:
        compactor = shared_compactor(
            config.misr_width, workload.scan_config.num_chains
        )
    responses = workload.responses
    with span("diagnose", scheme=scheme, workload=workload.name) as sp:
        results = diagnose_population(
            responses, workload.scan_config, partitions, compactor
        )
        sp.add("faults", len(responses))
        METRICS.incr("diagnosis.faults", len(responses))
    with span("dr.score", scheme=scheme, workload=workload.name):
        dr = diagnostic_resolution(results)
    dr_pruned = None
    pruned_results: List[DiagnosisResult] = []
    if with_pruning:
        with span("superposition.prune", scheme=scheme,
                  workload=workload.name) as sp:
            pruned_results = apply_superposition(results, workload.scan_config)
            candidates_in = sum(len(r.candidate_cells) for r in results)
            candidates_out = sum(len(r.candidate_cells) for r in pruned_results)
            sp.add("candidates_in", candidates_in)
            sp.add("candidates_out", candidates_out)
            METRICS.incr("superposition.pruned_cells",
                         candidates_in - candidates_out,
                         labels={"scheme": scheme})
        with span("dr.score", scheme=scheme, workload=workload.name, pruned=True):
            dr_pruned = diagnostic_resolution(pruned_results)
    return SchemeEvaluation(scheme, dr, dr_pruned, results, pruned_results)


def hash_name(name: str) -> int:
    value = 0
    for ch in name:
        value = (value * 131 + ord(ch)) & 0x7FFFFFFF
    return value


def _get_circuit(name: str, config: ExperimentConfig):
    from ..circuit.library import get_circuit

    return get_circuit(name, scale=config.scale)
