"""SOC 1 of the paper: the six largest ISCAS-89 benchmarks stitched onto a
single meta scan chain (Section 5, Table 3, Figure 5)."""

from __future__ import annotations

from typing import Optional, Sequence

from ..circuit.library import SIX_LARGEST, get_circuit
from .core_wrapper import DEFAULT_PATTERN_SEED, EmbeddedCore
from .testrail import TestRail


def build_stitched_soc(
    module_names: Optional[Sequence[str]] = None,
    num_patterns: int = 128,
    pattern_seed: int = DEFAULT_PATTERN_SEED,
    scale: Optional[float] = None,
) -> TestRail:
    """The first SOC: one meta scan chain threaded through all cores.

    ``scale`` shrinks every core proportionally (for tests); the default is
    the full published sizes.
    """
    names = list(module_names) if module_names is not None else list(SIX_LARGEST)
    cores = [
        EmbeddedCore(
            get_circuit(name, scale=scale),
            num_patterns=num_patterns,
            pattern_seed=pattern_seed,
        )
        for name in names
    ]
    return TestRail("soc-six-largest", cores, tam_width=1)
