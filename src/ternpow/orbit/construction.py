"""Recursive construction of dyadic seeds whose doubled floors dodge a digit.

Each level picks a run length l_k making frac(l_k * log3 2) so small that
multiplying by 2^(l_k) is almost exactly multiplying by 3^(r_k); the running
integer M_k then keeps its old ternary digits on top, opens a block of at
least k zeros, and exposes a low window of r_k digits that a level digit d_k
can steer.  Keeping every M_k free of the ternary digit 1 forces M_k even,
and N_k = M_k / 2 is then free of the digit 2.

The top-level digit d_0 is 2.  Seeding with 1 cannot work: the first level
would put M_1 in [2^(l_1), 2^(l_1) + d_1] which sits just above 3^(r_1) and
below 2 * 3^(r_1), so its leading ternary digit would be 1 no matter what
d_1 is.  With d_0 = 2 the accumulated seed satisfies 2 <= lambda < 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ..errors import InsufficientDepth, PrecisionError
from ..precision import (
    DEFAULT_PRECISION_CAP,
    MIN_PRECISION,
    alpha0_bounds,
    certified_floor,
    certified_less_than,
    compare_power3_power2,
    log3_bounds,
    power_le,
)
from ..ternary import (
    DyadicRational,
    count_free_upto,
    int_omits_digit,
    leading_digits,
    nth_free,
)
from .cf import CFExpansion, cf_log3_2

# run lengths up to this get an exhaustive certified minimality scan
SCAN_LIMIT = 200_000
# materialization cap on m_k: beyond this, M_k is reported, not stored
BIT_LIMIT = 1_000_000
_MAX_CF_DEPTH = 512


def _champion_ladder(cf: CFExpansion) -> list[tuple[int, int]]:
    """(l, floor(l * alpha0)) pairs where frac(l * alpha0) sets a new record low.

    These are the even-indexed convergent denominators and the semiconvergent
    rungs between them; frac(l * alpha0) = l * alpha0 - p stays positive and
    strictly decreases along the list, and every l not on the list has a
    fractional part at least as large as the last rung before it.
    """
    a = cf.partial_quotients
    out = [(cf.q(0), cf.p(0))]
    i = 0
    while i + 2 <= cf.depth:
        qi, pi = cf.q(i), cf.p(i)
        qj, pj = cf.q(i + 1), cf.p(i + 1)
        for t in range(1, a[i + 2] + 1):
            out.append((qi + t * qj, pi + t * pj))
        i += 2
    return out


def _frac_enclosure_maker(l: int, shift: int):
    """make(prec) -> exact bounds of l * alpha0 - shift, for l >= 0."""

    def make(prec: int) -> tuple[Fraction, Fraction]:
        lo, hi = alpha0_bounds(prec)
        return l * lo - shift, l * hi - shift

    return make


def _frac_below_threshold(
    l: int, r: int, texp: int, *, cap: int = DEFAULT_PRECISION_CAP
) -> bool:
    """Certified test of frac(l * alpha0) = l * alpha0 - r < 2^-texp.

    The fractional part is irrational, so it never ties with the dyadic
    threshold and escalation terminates.
    """
    return certified_less_than(
        _frac_enclosure_maker(l, r),
        Fraction(1, 2**texp),
        start=max(MIN_PRECISION, l.bit_length() + texp + 32),
        cap=cap,
        what=f"frac({l} * alpha0) vs 2^-{texp}",
    )


def _floor_multiple_alpha0(m: int, *, cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Exact floor(m * alpha0); never integral, so the floor is decidable."""
    return certified_floor(
        _frac_enclosure_maker(m, 0),
        start=max(MIN_PRECISION, m.bit_length() + 64),
        cap=cap,
        what=f"floor({m} * alpha0)",
    )


@dataclass(frozen=True)
class FindLk:
    """Winner of the run-length search at one level."""

    l: int
    r: int
    threshold_exponent: int
    champions: tuple[tuple[int, int], ...]
    scan_certified: bool
    lower_bound_ok: bool


def find_lk(m_prev: int, k: int, *, cap: int = DEFAULT_PRECISION_CAP) -> FindLk:
    """Smallest l >= 2k with 0 < frac(l * alpha0) < 2^-(m_prev + 2k + 4).

    The candidates come from the one-sided record ladder (even convergents
    of log3 2 and their semiconvergents); every earlier l is ruled out
    because its fractional part is at least the last record above the
    threshold.  When the winner is at most SCAN_LIMIT, an exhaustive
    certified scan over [2k, l) re-proves minimality independently.
    """
    if m_prev < 0:
        raise ValueError("m_prev must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    texp = m_prev + 2 * k + 4

    depth = 16
    winner = None
    inspected: list[tuple[int, int]] = []
    while winner is None:
        cf = cf_log3_2(depth, cap=cap)
        ladder = _champion_ladder(cf)
        inspected = []
        for l, r in ladder:
            if l < 2 * k:
                # below the floor on l; records here still certify later
                # minimality, so keep them in the inspection trail
                inspected.append((l, r))
                continue
            inspected.append((l, r))
            if _frac_below_threshold(l, r, texp, cap=cap):
                winner = (l, r)
                break
        if winner is None:
            if depth >= _MAX_CF_DEPTH:
                raise InsufficientDepth(
                    f"no run length below 2^-{texp} within cf depth {depth}"
                )
            depth *= 2

    l, r = winner
    scan_certified = False
    if l <= SCAN_LIMIT:
        for cand in range(2 * k, l):
            p = _floor_multiple_alpha0(cand, cap=cap)
            if _frac_below_threshold(cand, p, texp, cap=cap):
                raise PrecisionError(
                    f"scan found l={cand} beating ladder winner {l}"
                )
        scan_certified = True

    e10 = 10 * (m_prev + 2 * k - 7)
    lower_bound_ok = e10 <= 0 or power_le(2, e10, (l, 133))
    return FindLk(
        l=l,
        r=r,
        threshold_exponent=texp,
        champions=tuple(inspected),
        scan_certified=scan_certified,
        lower_bound_ok=lower_bound_ok,
    )


@dataclass(frozen=True)
class LevelReport:
    """Everything checked while extending the construction by one level."""

    level: int
    l: int
    r: int
    m: int
    threshold_exponent: int
    scan_certified: bool
    lower_bound_ok: bool
    materialized: bool
    zeros_required: int | None = None
    run_zeros_ok: bool | None = None
    low_window_start: int | None = None
    low_window_in_bounds: bool | None = None
    admissible_count: int | None = None
    guaranteed_count: int | None = None
    count_at_least_ok: bool | None = None
    digit: int | None = None
    digit_max: int | None = None
    m_digit1_free: bool | None = None
    m_even: bool | None = None
    n_digit2_free: bool | None = None
    lambda_range_ok: bool | None = None
    floor_identity_ok: bool | None = None
    tail_margin_ok: bool | None = None
    note: str = ""


@dataclass(frozen=True)
class ConstructionState:
    """Construction after running some number of levels.

    digits holds d_0 .. d_J for the J materialized levels; lam and M are the
    seed and integer at level J.  Scalar data (l, r, m, s) extends to every
    requested level even when the integers themselves are too wide to store.
    """

    levels: int
    levels_materialized: int
    l_values: tuple[int, ...]
    r_values: tuple[int, ...]
    m_values: tuple[int, ...]
    s_floor: tuple[int, ...]
    s_sum: tuple[int, ...]
    s_consistent: bool
    digits: tuple[int, ...]
    lam: DyadicRational
    M: int
    reports: tuple["LevelReport", ...]

    def __post_init__(self) -> None:
        for i, l in enumerate(self.l_values):
            if self.m_values[i + 1] != self.m_values[i] + l:
                raise ValueError("m_k must accumulate the run lengths")
        running = 0
        for i, r in enumerate(self.r_values):
            running += r
            if self.s_sum[i] != running:
                raise ValueError("s_k must accumulate the r_i")


def _free_ranks(lo: int, hi: int) -> tuple[int, int]:
    """(below, total) for the digit-1-free integers, the doubles 2 * nth_free(t):
    below of them are less than lo and total lie in [lo, hi]."""
    below = count_free_upto((lo - 1) // 2)
    return below, count_free_upto(hi // 2) - below


def _pick_low_window_value(
    lo: int, hi: int, policy: str, rng: random.Random | None
) -> int:
    """A digit-1-free integer in [lo, hi] selected by policy, by its rank."""
    below, total = _free_ranks(lo, hi)
    if policy == "min":
        t = below
    elif policy == "max":
        t = below + total - 1
    elif policy == "random":
        if rng is None:
            raise ValueError("random policy needs a seeded rng")
        t = below + rng.randrange(total)
    else:
        raise ValueError(f"unknown digit policy: {policy!r}")
    w = 2 * nth_free(t)
    if not (lo <= w <= hi):
        raise ValueError("(P2) violated: no digit-1-free value in the window")
    return w


def construct_theorem12(
    levels: int,
    digit_policy: str = "min",
    *,
    cap: int = DEFAULT_PRECISION_CAP,
) -> ConstructionState:
    """Run the level construction, checking every claim it relies on.

    digit_policy is "min", "max", or "random:<seed>".  Level 1 materializes
    M_1 and checks its digits directly.  Level 2's run length makes M_2
    about 10^21 bits wide, so its scalar data is computed and certified but
    the integer itself is reported as infeasible to store.  Level 3 would
    need roughly 2^(m_2)-bit precision and is rejected outright.  Every
    certified decision escalates up to ``cap`` bits.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > 2:
        raise ValueError(
            "level 3 needs precision around 2^(m_2) bits; capped at 2 levels"
        )
    rng: random.Random | None = None
    policy = digit_policy
    if digit_policy.startswith("random:"):
        rng = random.Random(int(digit_policy.split(":", 1)[1]))
        policy = "random"
    elif digit_policy not in ("min", "max"):
        raise ValueError(f"unknown digit policy: {digit_policy!r}")

    digits = [2]
    lam = Fraction(2)
    M = 2
    m_values = [0]
    l_values: list[int] = []
    r_values: list[int] = []
    s_floor: list[int] = []
    s_sum: list[int] = []
    reports: list[LevelReport] = []
    materialized = 0

    level_data: list[FindLk] = []
    for k in range(1, levels + 1):
        level_data.append(find_lk(m_values[-1], k, cap=cap))
        m_values.append(m_values[-1] + level_data[-1].l)
        l_values.append(level_data[-1].l)
        r_values.append(level_data[-1].r)
        s_floor.append(_floor_multiple_alpha0(m_values[-1], cap=cap))
        s_sum.append(sum(r_values))

    for k in range(1, levels + 1):
        flk = level_data[k - 1]
        l, r, m = flk.l, flk.r, m_values[k]
        m_prev = m_values[k - 1]
        feasible = m <= BIT_LIMIT

        # tail margin: the next level's digit cannot disturb floor(lam * 2^m),
        # because d_{k+1} <= 3^(r_{k+1}) < 2^(l_{k+1})
        tail_margin_ok = None
        if k < levels:
            nxt = level_data[k]
            tail_margin_ok = compare_power3_power2(nxt.r, nxt.l, cap=cap) < 0

        if not feasible:
            low_ok = _low_window_in_bounds_certified(M, l, r, k, cap=cap)
            reports.append(
                LevelReport(
                    level=k,
                    l=l,
                    r=r,
                    m=m,
                    threshold_exponent=flk.threshold_exponent,
                    scan_certified=flk.scan_certified,
                    lower_bound_ok=flk.lower_bound_ok,
                    materialized=False,
                    low_window_in_bounds=low_ok,
                    tail_margin_ok=tail_margin_ok,
                    note=(
                        f"M_{k} needs {m} bits (~{m // 8} bytes); digit-level "
                        "checks skipped, scalar data certified by intervals"
                    ),
                )
            )
            continue

        E = M * ((1 << l) - 3**r)
        dmax = 3**r - 3 ** (r - k)
        low_window_ok = 0 <= E <= 3 ** (r - k)

        admissible = _free_ranks(E, E + dmax)[1]
        guaranteed = 2**r - 2 ** (r - k)
        if admissible <= 0:
            raise ValueError("(P2) violated: empty admissible digit window")

        w = _pick_low_window_value(E, E + dmax, policy, rng)
        d = w - E

        M_new = (M << l) + d
        lam_new = lam + Fraction(d, 2**m)

        # exact ceil((m_prev + 2k + 2) * alpha0), never an integer
        zeros = _floor_multiple_alpha0(m_prev + 2 * k + 2, cap=cap) + 1
        lead = leading_digits(1 << l, zeros + 1)
        run_zeros_ok = lead[0] == "1" and set(lead[1:]) <= {"0"}

        m_free = int_omits_digit(M_new, 1)
        m_even = M_new % 2 == 0
        n_free = int_omits_digit(M_new // 2, 2)
        lam_range_ok = 2 <= lam_new < 3
        floor_identity_ok = (
            lam_new.numerator * 2**m // lam_new.denominator == M_new
        )

        reports.append(
            LevelReport(
                level=k,
                l=l,
                r=r,
                m=m,
                threshold_exponent=flk.threshold_exponent,
                scan_certified=flk.scan_certified,
                lower_bound_ok=flk.lower_bound_ok,
                materialized=True,
                zeros_required=zeros,
                run_zeros_ok=run_zeros_ok,
                low_window_start=E,
                low_window_in_bounds=low_window_ok,
                admissible_count=admissible,
                guaranteed_count=guaranteed,
                count_at_least_ok=admissible >= guaranteed,
                digit=d,
                digit_max=dmax,
                m_digit1_free=m_free,
                m_even=m_even,
                n_digit2_free=n_free,
                lambda_range_ok=lam_range_ok,
                floor_identity_ok=floor_identity_ok,
                tail_margin_ok=tail_margin_ok,
            )
        )
        digits.append(d)
        lam = lam_new
        M = M_new
        materialized = k

    denom_exp = m_values[materialized]
    lam_dyadic = DyadicRational.from_pair(
        lam.numerator * (2**denom_exp // lam.denominator), denom_exp
    )
    return ConstructionState(
        levels=levels,
        levels_materialized=materialized,
        l_values=tuple(l_values),
        r_values=tuple(r_values),
        m_values=tuple(m_values),
        s_floor=tuple(s_floor),
        s_sum=tuple(s_sum),
        s_consistent=list(s_floor) == list(s_sum),
        digits=tuple(digits),
        lam=lam_dyadic,
        M=M,
        reports=tuple(reports),
    )


def _low_window_in_bounds_certified(
    M_prev: int, l: int, r: int, k: int, *, cap: int = DEFAULT_PRECISION_CAP
) -> bool:
    """Certified M_prev * (2^l - 3^r) <= 3^(r-k) without materializing.

    Scaled by 3^-(r-k) the claim reads M_prev * 3^k * (3^frac - 1) < 1 with
    frac = l * alpha0 - r; since 3^x is increasing, that is
    frac - log3(1 + 1/(M_prev * 3^k)) < 0, which exact bounds on both logs
    settle at modest precision.
    """
    frac = _frac_enclosure_maker(l, r)
    target = 1 + Fraction(1, M_prev * 3**k)

    def make(prec: int) -> tuple[Fraction, Fraction]:
        flo, fhi = frac(prec)
        tlo, thi = log3_bounds(target, prec)
        return flo - thi, fhi - tlo

    return certified_less_than(
        make,
        Fraction(0),
        start=max(MIN_PRECISION, l.bit_length() + M_prev.bit_length() + 64),
        cap=cap,
        what="low window bound",
    )
