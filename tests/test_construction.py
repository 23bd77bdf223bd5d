"""The zero-block construction: run-length search and level extension."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from mpmath import iv

import ternpow.orbit.cf
import ternpow.precision
from ternpow import (
    ConstructionState,
    DyadicRational,
    construct_theorem12,
    find_lk,
    int_omits_digit,
    int_to_digits,
    leading_digits,
    theorem11_census,
)
from ternpow.orbit.construction import (
    _floor_multiple_alpha0,
    _frac_below_threshold,
    _free_ranks,
    _low_window_in_bounds_certified,
    _pick_low_window_value,
)
from ternpow.precision import MIN_PRECISION, certified_floor, certified_less_than

from conftest import iv_endpoints, iv_prec

L2 = 325919355854421968365
R2 = 205632218873398596256
M1 = 73846560566123567532


def _frac_enclosure_maker(l: int, shift: int):
    """The interval maker the construction used before exact bounds:
    make(prec) -> endpoints of l * alpha0 - shift evaluated in mpmath iv."""

    def make(prec: int):
        with iv_prec(prec):
            return iv_endpoints(iv.mpf(l) * (iv.log(2) / iv.log(3)) - shift)

    return make


def _iv_frac_below_threshold(l: int, r: int, texp: int) -> bool:
    return certified_less_than(
        _frac_enclosure_maker(l, r),
        Fraction(1, 2**texp),
        start=max(MIN_PRECISION, l.bit_length() + texp + 32),
    )


def _iv_floor_multiple_alpha0(m: int) -> int:
    return certified_floor(
        _frac_enclosure_maker(m, 0), start=max(MIN_PRECISION, m.bit_length() + 64)
    )


def _iv_low_window(M_prev: int, l: int, r: int, k: int) -> bool:
    """The interval test M_prev * 3^k * (3^frac - 1) < 1 it replaced."""

    def make(prec: int):
        with iv_prec(prec):
            fr = iv.mpf(l) * (iv.log(2) / iv.log(3)) - r
            return iv_endpoints((iv.exp(fr * iv.log(3)) - 1) * M_prev * 3**k)

    return certified_less_than(
        make,
        Fraction(1),
        start=max(MIN_PRECISION, l.bit_length() + M_prev.bit_length() + 64),
    )


def _msf(x: int) -> str:
    return "".join(str(d) for d in reversed(int_to_digits(x)))


def _next_omitting_1(x: int) -> int:
    """Least y >= x free of the ternary digit 1, by the digit walk the rank
    arithmetic replaced: for digit 1 it raises the first 1 to 2 and clears
    every digit below."""
    s = _msf(x)
    i = s.find("1")
    return x if i < 0 else int(s[:i] + "2" + "0" * (len(s) - i - 1), 3)


def _prev_omitting_1(x: int) -> int:
    """Greatest y <= x free of the digit 1: lower the first 1 to 0 and fill
    every digit below with 2."""
    s = _msf(x)
    i = s.find("1")
    return x if i < 0 else int(s[:i] + "0" + "2" * (len(s) - i - 1), 3)


def _count_omitting_upto_1(x: int) -> int:
    """Integers in [0, x] free of the digit 1, by a digit walk from the top:
    count the completions below each digit, stop at the first 1."""
    if x < 0:
        return 0
    s = _msf(x)
    n = len(s)
    if n == 0:
        return 1
    # zero, then every shorter expansion: a leading 2 and n-1 digits in {0, 2}
    total = 1 + sum(2 ** (length - 1) for length in range(1, n))
    for i, c in enumerate(s):
        d = int(c)
        pool = (2,) if i == 0 else (0, 2)
        total += sum(1 for a in pool if a < d) * 2 ** (n - 1 - i)
        if d == 1:
            return total
    return total + 1


def _walker_pick(lo: int, hi: int, policy: str, rng: random.Random | None) -> int:
    """The window pick before rank arithmetic: step for min and max, and
    bisect the count for the randrange index of the random policy."""
    if policy == "min":
        w = _next_omitting_1(lo)
    elif policy == "max":
        w = _prev_omitting_1(hi)
    else:
        below = _count_omitting_upto_1(lo - 1)
        total = _count_omitting_upto_1(hi) - below
        idx = rng.randrange(total)
        a, b = lo, hi
        while a < b:
            mid = (a + b) // 2
            if _count_omitting_upto_1(mid) - below >= idx + 1:
                b = mid
            else:
                a = mid + 1
        w = a
    if not (lo <= w <= hi):
        raise ValueError("(P2) violated: no digit-1-free value in the window")
    return w


def _outcome(pick, lo, hi, policy, seed):
    """(value or error text, next draw of the rng) for one pick."""
    rng = random.Random(seed)
    try:
        got = pick(lo, hi, policy, rng)
    except ValueError as exc:
        got = f"ValueError: {exc}"
    return got, rng.random()


def _level_one_window() -> tuple[int, int]:
    rep = construct_theorem12(1).reports[0]
    return rep.low_window_start, rep.low_window_start + rep.digit_max


def test_walker_oracles_match_brute():
    free = [z for z in range(2 * 3**7 + 1) if int_omits_digit(z, 1)]
    for x in range(-1, 3**7 + 1):
        assert _count_omitting_upto_1(x) == sum(1 for z in free if z <= x), x
        if x >= 0:
            assert _next_omitting_1(x) == min(z for z in free if z >= x), x
            assert _prev_omitting_1(x) == max(z for z in free if z <= x), x


def test_window_pick_matches_walker_oracle():
    gen = random.Random(20240517)
    # lo = 0, empty windows ([1, 1], [3, 5], [10, 17]) and one-value windows
    windows = [(0, 0), (0, 1), (0, 26), (1, 1), (3, 5), (10, 17), (18, 18)]
    while len(windows) < 200:
        width = gen.randint(1, 30)
        lo = gen.randrange(3**width)
        windows.append((lo, lo + gen.randrange(3 ** gen.randint(0, width))))
    windows.append(_level_one_window())
    empty = 0
    for i, (lo, hi) in enumerate(windows):
        total = _count_omitting_upto_1(hi) - _count_omitting_upto_1(lo - 1)
        assert _free_ranks(lo, hi)[1] == total, (lo, hi)
        empty += total == 0
        for policy in ("min", "max", "random"):
            got = _outcome(_pick_low_window_value, lo, hi, policy, i)
            assert got == _outcome(_walker_pick, lo, hi, policy, i), (lo, hi, policy)
            if total:
                assert int_omits_digit(got[0], 1)
            else:
                assert got[0].startswith("ValueError")
    assert empty >= 3


def test_level_one_picks_match_walker_oracle():
    lo, hi = _level_one_window()
    rep = construct_theorem12(1).reports[0]
    assert rep.admissible_count == _count_omitting_upto_1(hi) - _count_omitting_upto_1(
        lo - 1
    )
    for policy in ("min", "max", "random:1", "random:77", "random:123456"):
        name, _, seed = policy.partition(":")
        want = _walker_pick(lo, hi, name, random.Random(int(seed or 0)))
        got = construct_theorem12(1, digit_policy=policy).reports[0].digit
        assert got == want - lo, policy


def test_find_lk_level_one():
    fk = find_lk(0, 1)
    assert fk.l == 65
    assert fk.r == 41
    assert fk.threshold_exponent == 6
    assert fk.scan_certified
    assert fk.lower_bound_ok
    # the inspected record ladder is the even-convergent / semiconvergent run
    assert [l for l, _ in fk.champions[:7]] == [1, 2, 5, 8, 27, 46, 65]


def test_find_lk_level_two_scalars():
    fk = find_lk(65, 2)
    assert fk.threshold_exponent == 65 + 4 + 4
    assert fk.l == L2
    assert fk.r == R2
    assert not fk.scan_certified  # winner far beyond the exhaustive range
    assert fk.lower_bound_ok


def test_find_lk_validation():
    with pytest.raises(ValueError):
        find_lk(-1, 1)
    with pytest.raises(ValueError):
        find_lk(0, 0)


def test_run_of_zeros_in_pow2_65():
    assert leading_digits(1 << 65, 4) == "1000"


def test_level_one_full_checks():
    st = construct_theorem12(1)
    assert st.levels == st.levels_materialized == 1
    assert st.digits[0] == 2
    assert st.M == 73846560566123567532
    assert st.lam.numerator == 18461640141530891883
    assert st.lam.exponent == 63
    assert st.s_consistent

    rep = st.reports[0]
    assert rep.materialized
    assert rep.run_zeros_ok
    assert rep.low_window_in_bounds
    assert rep.count_at_least_ok
    assert 0 <= rep.digit <= rep.digit_max
    assert rep.m_digit1_free and rep.m_even
    assert rep.n_digit2_free
    assert rep.lambda_range_ok
    assert rep.floor_identity_ok


def test_level_one_integer_properties_independent():
    st = construct_theorem12(1)
    M = st.M
    assert int_omits_digit(M, 1)
    assert M % 2 == 0
    assert int_omits_digit(M // 2, 2)
    # floor identity against plain integers: lam = M / 2^65
    assert st.lam.numerator << (65 - st.lam.exponent) == M
    assert 2 * 2**65 <= M < 3 * 2**65


def test_digit_policies_differ_but_all_admit():
    lo = construct_theorem12(1, digit_policy="min")
    hi = construct_theorem12(1, digit_policy="max")
    rnd = construct_theorem12(1, digit_policy="random:42")
    assert lo.reports[0].digit <= rnd.reports[0].digit <= hi.reports[0].digit
    for st in (lo, hi, rnd):
        assert int_omits_digit(st.M, 1)
    # the random policy is reproducible
    again = construct_theorem12(1, digit_policy="random:42")
    assert again == rnd
    assert construct_theorem12(1, digit_policy="random:43") != rnd


def test_policy_validation():
    with pytest.raises(ValueError):
        construct_theorem12(1, digit_policy="random")
    with pytest.raises(ValueError):
        construct_theorem12(1, digit_policy="smallest")
    with pytest.raises(ValueError):
        construct_theorem12(0)
    with pytest.raises(ValueError):
        construct_theorem12(3)


def test_level_two_reports_infeasible_integer():
    st = construct_theorem12(2)
    assert st.levels == 2
    assert st.levels_materialized == 1
    assert st.l_values[1] == 325919355854421968365
    assert st.m_values[2] == 65 + 325919355854421968365
    assert st.s_consistent

    rep1, rep2 = st.reports
    assert rep1.materialized and rep1.tail_margin_ok
    assert not rep2.materialized
    assert rep2.note
    assert rep2.low_window_in_bounds
    assert rep2.scan_certified is False


def test_state_validation_catches_inconsistent_scalars():
    st = construct_theorem12(1)
    with pytest.raises(ValueError):
        ConstructionState(
            levels=st.levels,
            levels_materialized=st.levels_materialized,
            l_values=st.l_values,
            r_values=st.r_values,
            m_values=(0, st.m_values[1] + 1),
            s_floor=st.s_floor,
            s_sum=st.s_sum,
            s_consistent=st.s_consistent,
            digits=st.digits,
            lam=st.lam,
            M=st.M,
            reports=st.reports,
        )


def test_exact_alpha0_tests_match_interval_oracle():
    floors = {l: _floor_multiple_alpha0(l) for l in range(2, 200)}
    assert floors == {l: _iv_floor_multiple_alpha0(l) for l in floors}
    assert _floor_multiple_alpha0(L2) == _iv_floor_multiple_alpha0(L2) == R2
    for k in (1, 2, 3):
        for m_prev in (0, 5, 65, 100):
            texp = m_prev + 2 * k + 4
            for l in range(2 * k, 200):
                p = floors[l]
                assert _frac_below_threshold(l, p, texp) == _iv_frac_below_threshold(
                    l, p, texp
                ), (l, k, m_prev)
    assert _frac_below_threshold(65, 41, 6)
    assert _frac_below_threshold(L2, R2, 73)


def test_low_window_log_test_matches_exp_oracle():
    # the level-2 window of the min-policy construction, then multipliers
    # growing past the point where M * 3^k * (3^frac - 1) crosses 1
    assert _low_window_in_bounds_certified(M1, L2, R2, 2)
    assert _iv_low_window(M1, L2, R2, 2)
    verdicts = []
    for j in range(60, 100, 3):
        got = _low_window_in_bounds_certified(1 << j, L2, R2, 2)
        assert got == _iv_low_window(1 << j, L2, R2, 2), j
        verdicts.append(got)
    for M_prev in (2, 3, 4, 5, 7, 10, 100):
        got = _low_window_in_bounds_certified(M_prev, 65, 41, 1)
        assert got == _iv_low_window(M_prev, 65, 41, 1), M_prev
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_cap_reaches_every_escalation(monkeypatch):
    # the cap is passed down, not read from anywhere: every certified
    # decision of a level-2 construction and of a census escalates under it
    caps = []
    escalate = ternpow.precision.escalate

    def recording(attempt, **kwargs):
        caps.append(kwargs.get("cap"))
        return escalate(attempt, **kwargs)

    monkeypatch.setattr(ternpow.precision, "escalate", recording)
    monkeypatch.setattr(ternpow.orbit.cf, "escalate", recording)
    state = construct_theorem12(2, cap=4096)
    theorem11_census(DyadicRational.parse("1"), 1000, cap=4096)
    assert len(caps) > 60 and set(caps) == {4096}
    assert state == construct_theorem12(2)
