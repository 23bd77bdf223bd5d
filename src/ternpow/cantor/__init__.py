"""Carry-automaton side: admissible digit prefixes under simultaneous
multiplication, exact prefix counts, spectral dimension estimates, and
membership scans."""

from .automaton import (
    CarryAutomaton,
    MultiplierSet,
    build_automaton,
    count_prefixes,
    trim,
)
from .dimension import DimensionEstimate, exact_charpoly, hausdorff_dimension
from .search import (
    GreedyElement,
    ScanResult,
    ScanRow,
    SigmaSubsetReport,
    WitnessResult,
    greedy_element,
    scan_problems,
    smallest_witness,
    verify_sigma_subsets,
)

__all__ = [
    "MultiplierSet",
    "CarryAutomaton",
    "build_automaton",
    "trim",
    "count_prefixes",
    "DimensionEstimate",
    "hausdorff_dimension",
    "exact_charpoly",
    "greedy_element",
    "GreedyElement",
    "smallest_witness",
    "WitnessResult",
    "verify_sigma_subsets",
    "SigmaSubsetReport",
    "scan_problems",
    "ScanResult",
    "ScanRow",
]
