"""Real-orbit side: continued fractions, three-distance spectra, the leading
ternary digit census, and the dyadic Cantor-set construction."""

from .cf import CFExpansion, cf_log3_2, check_lemma22
from .construction import (
    ConstructionState,
    FindLk,
    LevelReport,
    construct_theorem12,
    find_lk,
)
from .gaps import (
    GapSpectrum,
    special_two_length,
    three_gap,
    three_gap_bruteforce,
)
from .leading import (
    CensusReport,
    census_bound_check,
    theorem11_census,
)

__all__ = [
    "CFExpansion",
    "cf_log3_2",
    "check_lemma22",
    "GapSpectrum",
    "three_gap",
    "three_gap_bruteforce",
    "special_two_length",
    "CensusReport",
    "theorem11_census",
    "census_bound_check",
    "ConstructionState",
    "FindLk",
    "LevelReport",
    "find_lk",
    "construct_theorem12",
]
