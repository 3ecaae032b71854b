"""SOC 2 of the paper: a variant of the ITC'02 ``d695`` SOC (Section 5,
Table 4).

Only the full-scan ISCAS-89 modules of d695 are used (the combinational
c-circuits carry no scan cells and play no role in failing-cell diagnosis).
The cores are daisy-chained on an 8-bit-wide TAM whose meta scan chains are
balanced across the SOC, in the order of the paper's Figure 4.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..circuit.library import D695_MODULES, get_circuit
from .core_wrapper import DEFAULT_PATTERN_SEED, EmbeddedCore
from .testrail import TestRail

DEFAULT_TAM_WIDTH = 8


def build_d695_soc(
    module_names: Optional[Sequence[str]] = None,
    tam_width: int = DEFAULT_TAM_WIDTH,
    num_patterns: int = 128,
    pattern_seed: int = DEFAULT_PATTERN_SEED,
    scale: Optional[float] = None,
) -> TestRail:
    """The d695-variant SOC with ``tam_width`` balanced meta scan chains."""
    names = list(module_names) if module_names is not None else list(D695_MODULES)
    cores = [
        EmbeddedCore(
            get_circuit(name, scale=scale),
            num_patterns=num_patterns,
            pattern_seed=pattern_seed,
        )
        for name in names
    ]
    return TestRail("soc-d695", cores, tam_width=tam_width)
