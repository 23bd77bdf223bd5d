"""Exact arithmetic around ternary expansions of powers of two.

Four layers:

- ternary: base-3 digits of plain integers, dyadic rationals,
  digit-omission tests, and the binary coding of digit-2-free integers.
- sieve: residue sieves and exact enumeration of exponents n for which
  floor(lam * 2^n) has a digit-2-free ternary expansion.
- orbit: the continued fraction of log3(2), three-distance arc spectra,
  leading-digit censuses, and the run-of-zeros construction that
  builds integers 2^m with long zero blocks.
- cantor: carry automata recognizing digit prefixes admissible under
  simultaneous multiplication, exact prefix counts, spectral dimension
  enclosures, and membership scans.

Everything user-facing is re-exported here; the command line lives in
ternpow.cli.
"""

from .errors import (
    InsufficientDepth,
    InsufficientDigits,
    PrecisionError,
    SizeGuardError,
    TernpowError,
)
from .ternary import (
    DyadicRational,
    count_free_upto,
    floor_times_pow2,
    int_omits_digit,
    int_to_digits,
    leading_digits,
    nth_free,
)
from .sieve import (
    PadicApprox,
    SieveReport,
    TildeCount,
    count_N,
    count_tilde_N,
    enumerate_digit2free_powers,
    multiplicative_order_pow2,
    narkiewicz_check,
    sieve_report,
    survivor_chain,
    survivors_N,
)
from .orbit import (
    CensusReport,
    CFExpansion,
    ConstructionState,
    FindLk,
    GapSpectrum,
    LevelReport,
    census_bound_check,
    cf_log3_2,
    check_lemma22,
    construct_theorem12,
    find_lk,
    special_two_length,
    theorem11_census,
    three_gap,
    three_gap_bruteforce,
)
from .cantor import (
    CarryAutomaton,
    DimensionEstimate,
    GreedyElement,
    MultiplierSet,
    ScanResult,
    ScanRow,
    SigmaSubsetReport,
    WitnessResult,
    build_automaton,
    count_prefixes,
    exact_charpoly,
    greedy_element,
    hausdorff_dimension,
    scan_problems,
    smallest_witness,
    trim,
    verify_sigma_subsets,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TernpowError",
    "PrecisionError",
    "SizeGuardError",
    "InsufficientDigits",
    "InsufficientDepth",
    # ternary
    "DyadicRational",
    "leading_digits",
    "int_to_digits",
    "int_omits_digit",
    "nth_free",
    "count_free_upto",
    "floor_times_pow2",
    # sieve
    "PadicApprox",
    "SieveReport",
    "TildeCount",
    "multiplicative_order_pow2",
    "survivor_chain",
    "enumerate_digit2free_powers",
    "sieve_report",
    "narkiewicz_check",
    "count_N",
    "survivors_N",
    "count_tilde_N",
    # orbit
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
    "FindLk",
    "LevelReport",
    "ConstructionState",
    "find_lk",
    "construct_theorem12",
    # cantor
    "MultiplierSet",
    "CarryAutomaton",
    "build_automaton",
    "trim",
    "count_prefixes",
    "DimensionEstimate",
    "hausdorff_dimension",
    "exact_charpoly",
    "GreedyElement",
    "greedy_element",
    "WitnessResult",
    "smallest_witness",
    "SigmaSubsetReport",
    "verify_sigma_subsets",
    "ScanResult",
    "ScanRow",
    "scan_problems",
]
