"""Whole-pipeline integration: ITC'02-style description -> wrapper chain
assignment -> TestRail -> bypass schedule -> fault injection -> per-phase
two-step diagnosis -> candidates mapped back to cores.

This is the full SOC story of the paper's Section 5, every substrate in
one flow, checked for soundness and core-level localization.
"""

import numpy as np
import pytest

from repro.sim.bitops import pattern_mask
from repro.sim.faultsim import FaultResponse
from repro.soc.schedule import TestSchedule as Schedule
from repro.soc.schedule import diagnose_schedule
from repro.soc.socfile import build_testrail_from_description, parse_soc

SOC_TEXT = """
SocName pipeline
TotalModules 3
Module 0 s838
  Inputs 34
  Outputs 1
  ScanChains 2 : 16 16
  TestPatterns 48
Module 1 s953
  Inputs 16
  Outputs 23
  ScanChains 2 : 15 14
  TestPatterns 64
Module 2 s1423
  Inputs 17
  Outputs 5
  ScanChains 3 : 25 25 24
  TestPatterns 32
"""


@pytest.fixture(scope="module")
def pipeline():
    desc = parse_soc(SOC_TEXT)
    rail, budgets = build_testrail_from_description(desc, tam_width=2)
    schedule = Schedule(rail, budgets)
    return desc, rail, schedule


class TestPipeline:
    def test_description_drives_construction(self, pipeline):
        desc, rail, schedule = pipeline
        assert rail.num_cells == sum(c.num_cells for c in rail.cores)
        assert rail.scan_config.num_chains == 2
        # Budgets: 48/64/32 -> phases at 0..31, 32..47, 48..63.
        assert [p.num_patterns for p in schedule.phases] == [32, 16, 16]
        assert schedule.phases[1].active_cores == (0, 1)
        assert schedule.phases[2].active_cores == (1,)

    def test_whole_flow_sound_and_localized(self, pipeline):
        desc, rail, schedule = pipeline
        rng = np.random.default_rng(77)
        for core_index, core in enumerate(rail.cores):
            budget = schedule.budgets[core_index]
            responses = core.sample_fault_responses(3, rng)
            clipped = [
                _clip(rail.lift_response(core_index, response), budget)
                for response in responses
            ]
            clipped = [response for response in clipped if response.detected]
            results = diagnose_schedule(
                clipped, schedule, num_partitions=6, num_groups=4
            )
            for response, result in zip(clipped, results):
                assert result.sound, (core.name, str(response.fault))
                # Two-step localization: most candidates should sit in the
                # faulty core (intervals capture its contiguous segment).
                in_core = sum(
                    1
                    for cell in result.candidate_cells
                    if rail.owner(cell).core_index == core_index
                )
                assert in_core >= len(result.actual_cells)

    def test_roundtrip_description_rebuilds_same_soc(self, pipeline):
        from repro.soc.socfile import write_soc

        desc, rail, schedule = pipeline
        desc2 = parse_soc(write_soc(desc))
        rail2, budgets2 = build_testrail_from_description(desc2, tam_width=2)
        assert [len(c) for c in rail2.scan_config.chains] == [
            len(c) for c in rail.scan_config.chains
        ]
        assert budgets2 == desc.pattern_budgets()


def _clip(response, budget):
    mask = pattern_mask(min(budget, response.num_patterns))
    clipped = {}
    for cell, vec in response.cell_errors.items():
        new_vec = vec.copy()
        new_vec[: len(mask)] &= mask
        new_vec[len(mask):] = 0
        if new_vec.any():
            clipped[cell] = new_vec
    return FaultResponse(response.fault, clipped, response.num_patterns)
