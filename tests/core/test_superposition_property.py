"""The population superposition kernel against the pairwise reference.

Seeded-stdlib property test: every input is drawn from ``random.Random``
(circuit shape, chain layout, readout, scheme, partition and group counts,
MISR width), diagnosed with ``diagnose_population`` over a
``circuit.generate`` netlist, then pruned by the kernel
(``apply_superposition``) and, fault by fault, by the reference in
``superposition_reference``.  The DESIGN.md section 5 invariants are
checked on the same inputs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.circuit.generate import CircuitProfile, generate_circuit
from repro.core.diagnosis_batch import diagnose_population
from repro.core.superposition import apply_superposition
from repro.core.two_step import make_partitioner
from repro.soc.core_wrapper import EmbeddedCore

from .superposition_reference import reference_apply

SEEDS = range(24)


def draw_case(seed):
    """One random population: ``(scan_config, responses, results)``."""
    rnd = random.Random(seed)
    n_ff = rnd.randint(96, 160)
    profile = CircuitProfile(
        f"sp{seed}", rnd.randint(3, 6), rnd.randint(2, 4), n_ff,
        rnd.randint(3 * n_ff, 5 * n_ff), depth=rnd.randint(4, 7),
    )
    core = EmbeddedCore(generate_circuit(profile, seed=seed),
                        num_patterns=rnd.choice([16, 32, 64]))
    if rnd.random() < 0.5:
        config = ScanConfig.single_chain(core.num_cells)
    else:
        config = ScanConfig.balanced(core.num_cells, rnd.randint(2, 3))
    # Undetected faults stay in: they are the faults with no candidates.
    responses = core.sample_fault_responses(
        16, np.random.default_rng(seed), detected_only=False
    )
    scheme = rnd.choice(["random", "two-step"])
    # LFSR selection needs a power-of-two group count.  Two-step's interval
    # seed search can run through every seed at 32 short intervals, so it
    # draws 8 or 16 groups of four or more cells.
    if scheme == "random":
        groups = rnd.choice([8, 16, 32])
    else:
        groups = rnd.choice([g for g in (8, 16) if 4 * g <= config.max_length])
    # Few partitions leave the most for superposition to prune.
    count = rnd.choice([2, 3, 4, rnd.randint(2, 24)])
    partitions = make_partitioner(scheme, config.max_length, groups).partitions(
        count
    )
    compactor = LinearCompactor(rnd.choice([16, 24, 32]), config.num_chains)
    results = diagnose_population(
        responses, config, partitions, compactor,
        channel_resolution=rnd.random() < 0.5,
    )
    return config, responses, results


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_reference(seed):
    config, _, results = draw_case(seed)
    pruned = apply_superposition(results, config)
    assert len(pruned) == len(results)
    for result, kernel in zip(results, pruned):
        mask, cells = reference_apply(result, config)
        assert np.array_equal(kernel.position_mask, mask)
        assert kernel.candidate_cells == cells
        # Invariants: pruning never adds candidates and never loses a
        # failing cell that intersection kept.
        assert kernel.candidate_cells <= result.candidate_cells
        if result.sound:
            assert kernel.sound
        if not result.detected:
            assert kernel.candidate_cells == set()
    again = apply_superposition(pruned, config)
    for once, twice in zip(pruned, again):
        assert np.array_equal(once.position_mask, twice.position_mask)


def test_empty_population():
    assert apply_superposition([], ScanConfig.single_chain(8)) == []


def test_exact_mode_rejected_per_result():
    config, responses, results = draw_case(0)
    detected = [r for r in responses if r.detected]
    undetected = [r for r in responses if not r.detected]
    assert detected and undetected
    partitions = results[0].partitions
    exact = diagnose_population(detected[:1], config, partitions, compactor=None)
    with pytest.raises(ValueError, match="MISR signatures"):
        apply_superposition(results + exact, config)
    # An exact result without failing sessions carries no placeholder.
    quiet = diagnose_population(undetected[:1], config, partitions, compactor=None)
    [kept] = apply_superposition(results + quiet, config)[-1:]
    assert kept.candidate_cells == set()
