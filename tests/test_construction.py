"""The zero-block construction: run-length search and level extension."""

from __future__ import annotations

import pytest

from ternpow import (
    ConstructionState,
    construct_theorem12,
    find_lk,
    int_omits_digit,
    leading_digits,
)


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
    assert fk.l == 325919355854421968365
    assert fk.r == 205632218873398596256
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


def test_explicit_digit_validation():
    st = construct_theorem12(1)
    good = st.reports[0].digit
    forced = construct_theorem12(1, explicit_digits={1: good})
    assert forced.M == st.M
    with pytest.raises(ValueError):
        construct_theorem12(1, explicit_digits={1: 3**41})
    with pytest.raises(ValueError):
        # the window start itself carries a ternary digit 1
        construct_theorem12(1, explicit_digits={1: 0})


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
