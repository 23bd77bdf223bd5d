"""Release-gate checks, shared by the `verify` command and the test suite.

Each criterion is a standalone callable returning a CriterionResult; run_all
executes them in order.  Checks recompute their expectations independently
(brute enumeration, exact integer comparisons) rather than trusting cached
values, so a pass is evidence, not a tautology.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .cantor import (
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
from .orbit import (
    cf_log3_2,
    check_lemma22,
    construct_theorem12,
    find_lk,
    special_two_length,
    three_gap,
)
from .orbit.gaps import BruteRotationGaps
from .sieve import (
    PadicApprox,
    count_N,
    count_tilde_N,
    enumerate_digit2free_powers,
    multiplicative_order_pow2,
    narkiewicz_check,
    sieve_report,
    survivor_chain,
)
from .ternary import DyadicRational, int_omits_digit, leading_digits


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number:>2} {self.name:<24} {verdict}"
            f"  [{self.seconds:6.1f}s]  {self.detail}"
        )


def criterion_1_sieve_exactness() -> CriterionResult:
    """Exponent sieve finds exactly {0, 2, 8} up to 4374 and up to 10^5."""
    t0 = time.perf_counter()
    small = tuple(enumerate_digit2free_powers(4374))
    small_elapsed = time.perf_counter() - t0
    big = tuple(enumerate_digit2free_powers(100_000))
    ok = small == (0, 2, 8) == big and small_elapsed < 10.0
    return CriterionResult(
        1,
        "sieve-exactness",
        ok,
        f"survivors {list(small)} at 4374 ({small_elapsed:.2f}s) and {list(big)} at 10^5",
        time.perf_counter() - t0,
    )


def criterion_2_count_bounds() -> CriterionResult:
    """Surrogate and exact counts stay under their power-law envelopes."""
    t0 = time.perf_counter()
    checks = []
    details = []
    lam3 = PadicApprox.from_int(1, 24)
    lam2 = DyadicRational.from_pair(1, 0)
    for X in (100, 1000, 10_000):
        tc = count_tilde_N(lam3, X)
        exact = count_N(lam2, X)
        checks.append(tc.bound_ok)
        checks.append(narkiewicz_check(exact, X))
        details.append(f"X={X}: surrogate {tc.count} (k={tc.k}), exact {exact}")
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 30.0
    return CriterionResult(
        2, "count-bounds", ok, "; ".join(details), elapsed
    )


def criterion_3_residue_structure() -> CriterionResult:
    """Survivor residue classes number exactly 2^(k-1), matching brute force,
    and the survivor-tree walk the commands run counts the same classes."""
    t0 = time.perf_counter()
    ok = True
    for k, got in enumerate(survivor_chain(12), start=1):
        ok &= len(got) == 2 ** (k - 1)
        if k <= 7:
            modulus = multiplicative_order_pow2(k)
            brute = frozenset(
                n
                for n in range(modulus)
                if int_omits_digit(pow(2, n, 3**k), 2)
            )
            ok &= got == brute
    # [0, 2*3^11 - 1] holds 3^(12-k) whole periods 2*3^(k-1) at depth k
    counts = sieve_report(2 * 3**11 - 1).counts_per_k
    ok &= all(counts[k - 1] == 2 ** (k - 1) * 3 ** (12 - k) for k in range(1, 13))
    return CriterionResult(
        3,
        "residue-structure",
        ok,
        "sizes 2^(k-1) for k=1..12; brute-force match for k<=7; "
        "tree counts 2^(k-1)*3^(12-k) over 2*3^11 exponents",
        time.perf_counter() - t0,
    )


def criterion_4_three_distance() -> CriterionResult:
    """Closed-form arc spectra equal a brute orbit sweep for all N <= 2000."""
    t0 = time.perf_counter()
    cf = cf_log3_2(14)
    ok = True
    bad: list[str] = []
    for offset in (0, Fraction(3, 10)):
        sweep = BruteRotationGaps(cf, offset)
        for n_points in range(1, 2001):
            sweep.advance()
            if not sweep.matches_formula(three_gap(cf, offset, n_points)):
                ok = False
                bad.append(f"N={n_points} offset={offset}")
                if len(bad) > 3:
                    break
    # exactly two arc lengths right before each denominator, with the
    # longer one less than twice the shorter
    two_len = []
    for n in range(1, 12):
        if cf.q(n + 1) - 1 < 1:
            continue
        if cf.q(n + 1) - 1 > 2000:
            break
        two_len.append(special_two_length(cf, n))
    ok &= all(two_len) and len(two_len) >= 5
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    detail = (
        f"2 offsets x 2000 sweeps, exact match; {len(two_len)} two-length cases"
        + (f"; mismatches {bad}" if bad else "")
    )
    return CriterionResult(4, "three-distance", ok, detail, elapsed)


def criterion_5_convergent_growth() -> CriterionResult:
    """q_n <= 1200 * q_(n-1)^13.3 for the first 40 convergents (exact)."""
    t0 = time.perf_counter()
    verdicts = check_lemma22(cf_log3_2(40))
    ok = len(verdicts) == 40 and all(verdicts)
    return CriterionResult(
        5,
        "convergent-growth",
        ok,
        f"{sum(verdicts)}/{len(verdicts)} indices pass the exact comparison",
        time.perf_counter() - t0,
    )


def _phi_is_root(coeffs) -> bool:
    """Whether x^2 - x - 1 divides the integer polynomial (coefficients
    highest degree first).

    Horner's rule evaluates it at phi in Z[phi], carrying a + b*phi as
    (a, b): phi^2 = phi + 1 turns (a, b) * phi + c into (b + c, a + b).
    x^2 - x - 1 is monic and phi's minimal polynomial, so it divides
    exactly when the value is 0.
    """
    a = b = 0
    for c in coeffs:
        a, b = b + c, a + b
    return a == b == 0


def criterion_6_dimension_gold() -> CriterionResult:
    """The {1,7} machine's growth rate is the golden ratio, certified."""
    t0 = time.perf_counter()
    est = hausdorff_dimension([1, 7])
    width_ok = est.hi - est.lo < Fraction(1, 10**9)
    # phi is the positive root of x^2 - x - 1: containment is an exact
    # rational sign check on the enclosure endpoints
    contains_phi = (
        est.rho_lo**2 - est.rho_lo - 1 <= 0 <= est.rho_hi**2 - est.rho_hi - 1
    )
    charpoly_ok = _phi_is_root(exact_charpoly([1, 7]))

    stable = all(
        hausdorff_dimension([1, 7 * 3**j]) == est for j in (1, 2, 3)
    )
    ok = width_ok and contains_phi and charpoly_ok and stable
    return CriterionResult(
        6,
        "dimension-gold",
        ok,
        f"value {est.value:.10f}, width {float(est.hi - est.lo):.2e}, "
        f"charpoly divisible by x^2-x-1: {charpoly_ok}, 3^j stability: {stable}",
        time.perf_counter() - t0,
    )


def criterion_7_dimension_upper_half() -> CriterionResult:
    """dim <= 1/2 for every non-power-of-3 multiplier up to 1000."""
    t0 = time.perf_counter()
    limit = Fraction(1, 2) + Fraction(1, 10**9)
    worst = Fraction(0)
    ok = True
    for m in range(2, 1001):
        mm = m
        while mm % 3 == 0:
            mm //= 3
        if mm == 1:
            continue  # powers of 3 impose no constraint at all
        est = hausdorff_dimension([1, m], prefix_depth=1)
        ok &= est.exact or est.converged
        if est.hi > worst:
            worst = est.hi
        if est.hi > limit:
            ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    return CriterionResult(
        7,
        "dimension-upper-half",
        ok,
        f"max enclosure top {float(worst):.12f} over 2..1000",
        elapsed,
    )


def criterion_8_residue2_and_greedy() -> CriterionResult:
    """Residue-2 multipliers kill everything; residue-1 always extend."""
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 1001, 3):
        t = trim(build_automaton([1, m]))
        ok &= t.num_states == 1 and t.transitions == ((0, None),)
    for m in range(4, 1001, 3):
        g = greedy_element(m, 64)
        prod = m * g.value
        ok &= g.digits[0] == 1 and len(g.digits) == 64
        for _ in range(64):
            if prod % 3 == 2:
                ok = False
                break
            prod //= 3
    return CriterionResult(
        8,
        "residue-classes",
        ok,
        "2 mod 3: only the zero word survives; 1 mod 3: 64-digit prefixes exist",
        time.perf_counter() - t0,
    )


def criterion_9_subset_chain() -> CriterionResult:
    """Block subsets, the N=1 witness bound, and the strict 52 example."""
    t0 = time.perf_counter()
    reps = [verify_sigma_subsets(r) for r in (6, 12)]
    sigma_ok = all(
        r.sigma_a_all_accepted and r.sigma_b_all_accepted for r in reps
    )
    w = smallest_witness([1, 4, 256])
    # the bound is log3(2) / bound_denominator, so the denominator pins it
    witness_ok = w.found and w.n == 1 and w.bound_denominator == 6
    est = hausdorff_dimension([1, 4])
    dim_ok = est.lo >= Fraction("0.31596") and est.hi <= Fraction(1, 2)
    scan = scan_problems(100)
    strict_ok = 52 in scan.strict
    ok = sigma_ok and witness_ok and dim_ok and strict_ok
    return CriterionResult(
        9,
        "subset-chain",
        ok,
        f"sigma subsets ok={sigma_ok}; witness N={w.n} bound {w.bound:.5f}; "
        f"dim(1,4)={est.value:.6f}; strict set {scan.strict}",
        time.perf_counter() - t0,
    )


def criterion_10_construction() -> CriterionResult:
    """Desk-scale run of the zero-block construction, both levels."""
    t0 = time.perf_counter()
    fk = find_lk(0, 1)
    fk_ok = fk.l == 65 and fk.r == 41 and fk.scan_certified and fk.lower_bound_ok

    lead = leading_digits(1 << 65, 4)
    lead_ok = lead == "1000"

    st = construct_theorem12(1)
    rep = st.reports[0]
    level1_ok = (
        rep.materialized
        and rep.run_zeros_ok
        and rep.low_window_in_bounds
        and rep.count_at_least_ok
        and 0 <= rep.digit <= rep.digit_max
        and int_omits_digit(rep.low_window_start + rep.digit, 1)
        and rep.m_digit1_free
        and rep.m_even
        and rep.n_digit2_free
        and rep.lambda_range_ok
        and rep.floor_identity_ok
        and st.s_consistent
    )

    st2 = construct_theorem12(2)
    rep2 = st2.reports[1]
    level2_ok = (
        st2.levels_materialized == 1
        and not rep2.materialized
        and bool(rep2.note)
        and rep2.low_window_in_bounds
        and st2.reports[0].tail_margin_ok
        and st2.s_consistent
    )
    ok = fk_ok and lead_ok and level1_ok and level2_ok
    return CriterionResult(
        10,
        "construction",
        ok,
        f"l1={fk.l} r1={fk.r} certified; 2^65 leads {lead!r}; level 1 checks "
        f"pass; level 2 scalars (l2={st2.l_values[1]}) certified, integer "
        "reported infeasible",
        time.perf_counter() - t0,
    )


def criterion_11_prefix_oracle() -> CriterionResult:
    """Path counting equals 2^r brute enumeration on random multiplier sets."""
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    ok = True
    tested = 0
    while tested < 20:
        size = rng.randint(1, 3)
        mults = sorted(rng.sample(range(2, 61), size))
        a = build_automaton(mults)
        if a.num_states > 1000:
            continue
        r = rng.randint(1, 14)
        got = count_prefixes(a, r)
        want = 0
        for bits in range(1 << r):
            n = 0
            for j in range(r):
                if (bits >> j) & 1:
                    n += 3**j
            good = True
            for m in a.multipliers:
                prod = m * n
                for _ in range(r):
                    if prod % 3 == 2:
                        good = False
                        break
                    prod //= 3
                if not good:
                    break
            if good:
                want += 1
        if got != want:
            ok = False
        tested += 1
    return CriterionResult(
        11,
        "prefix-oracle",
        ok,
        "20 random multiplier sets, r <= 14, exact equality",
        time.perf_counter() - t0,
    )


ALL_CRITERIA = (
    criterion_1_sieve_exactness,
    criterion_2_count_bounds,
    criterion_3_residue_structure,
    criterion_4_three_distance,
    criterion_5_convergent_growth,
    criterion_6_dimension_gold,
    criterion_7_dimension_upper_half,
    criterion_8_residue2_and_greedy,
    criterion_9_subset_chain,
    criterion_10_construction,
    criterion_11_prefix_oracle,
)


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the requested criteria (all by default, in order)."""
    wanted = set(numbers) if numbers else None
    out = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if wanted is None or i in wanted:
            out.append(fn())
    return out
