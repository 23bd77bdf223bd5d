"""Leading-digit windows, dual-route classification, and the census."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternpow import (
    DyadicRational,
    InsufficientDigits,
    census_bound_check,
    classify_leading,
    int_to_digits,
    leading_interval,
    theorem11_census,
)


def _all_digit_strings(k):
    for lead in "12":
        for rest in product("012", repeat=k - 1):
            yield lead + "".join(rest)


def test_interval_basic_fields():
    j = leading_interval("102")
    assert j.k == 3
    assert j.value == 11
    assert j.beta == Fraction(11, 9)


def test_interval_validation():
    with pytest.raises(ValueError):
        leading_interval("012")
    with pytest.raises(ValueError):
        leading_interval("")
    with pytest.raises(ValueError):
        leading_interval("13")


def test_windows_partition_unit_interval():
    for k in (1, 2, 3):
        strings = list(_all_digit_strings(k))
        # consecutive windows share an endpoint; the chain spans [0, 1)
        first = leading_interval(strings[0])
        assert first.left_enclosure() == (Fraction(0), Fraction(0))
        last = leading_interval(strings[-1])
        assert last.right_enclosure() == (Fraction(1), Fraction(1))
        for a, b in zip(strings, strings[1:]):
            assert leading_interval(a).value + 1 == leading_interval(b).value


def test_window_widths_certified():
    for k in (1, 2, 3, 4):
        for b in _all_digit_strings(k):
            assert leading_interval(b).width_in_bounds()


def test_window_width_enclosure_brackets_difference():
    j = leading_interval("21")
    wlo, whi = j.width_enclosure()
    llo, lhi = j.left_enclosure()
    rlo, rhi = j.right_enclosure()
    assert wlo <= rlo - llo and rhi - lhi <= whi
    assert wlo > 0


@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=6),
)
def test_dual_routes_agree(num, s, n, k):
    lam = DyadicRational.from_pair(num, s)
    try:
        cls = classify_leading(lam, n, k)
    except InsufficientDigits:
        return
    assert cls.agree
    assert cls.c1 == cls.c2
    assert len(cls.c1) == k
    assert cls.c1[0] != "0"


def test_classification_reads_true_digits():
    # 3/4 * 2^10 = 768 = 1001110 in base 3
    cls = classify_leading(DyadicRational.from_pair(3, 2), 10, 4)
    assert cls.c1 == "1001"
    assert not cls.boundary


def test_boundary_flag_on_exact_powers():
    # 81/64 * 2^6 = 81: the orbit point sits exactly on a window endpoint
    cls = classify_leading(DyadicRational.from_pair(81, 6), 6, 1)
    assert cls.boundary
    assert cls.agree and cls.c1 == "1"
    # n=7 doubles onto the left endpoint of J("2") (162 = 2 * 3^4), n=8 not
    assert classify_leading(DyadicRational.from_pair(81, 6), 7, 1).boundary
    off = classify_leading(DyadicRational.from_pair(81, 6), 8, 1)
    assert not off.boundary


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_leading(DyadicRational.from_pair(1, 0), 5, 0)
    with pytest.raises(ValueError):
        classify_leading(DyadicRational.from_pair(1, 0), -1, 1)
    with pytest.raises(InsufficientDigits):
        classify_leading(DyadicRational.from_pair(1, 0), 1, 5)


def test_classify_below_one_has_no_digits():
    # 5/2^6 * 2^5 = 5/2 has one digit; at n = 4 the value 5/4 still has
    # one; at n = 3, 5/8 < 1 and its integer floor has none
    lam = DyadicRational.from_pair(5, 6)
    assert classify_leading(lam, 5, 1).c1 == "2"
    assert classify_leading(lam, 4, 1).c1 == "1"
    for n in (0, 1, 2, 3):
        with pytest.raises(InsufficientDigits):
            classify_leading(lam, n, 1)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=6),
)
def test_classify_matches_integer_floor_digits(num, s, n, k):
    lam = DyadicRational.from_pair(num, s)
    v = lam.value * 2**n
    full = "".join(str(d) for d in reversed(int_to_digits(v.__floor__())))
    if len(full) < k:
        with pytest.raises(InsufficientDigits):
            classify_leading(lam, n, k)
        return
    cls = classify_leading(lam, n, k)
    assert cls.c1 == cls.c2 == full[:k]
    assert cls.boundary == ((v / 3 ** (len(full) - k)).denominator == 1)


def test_census_frozen_run():
    rep = theorem11_census(DyadicRational.from_pair(1, 0), 1000)
    assert (rep.l, rep.k) == (9, 6)
    assert (rep.q_lower, rep.q_upper) == (485, 1054)
    assert rep.census == 98
    assert rep.exact_count == 2
    assert rep.bound_ok
    assert rep.prefixes == 32
    assert rep.block_length == 484
    assert rep.per_block_ok
    assert rep.per_block_max <= rep.per_block_bound == 6 * 2**5


def test_census_against_direct_count():
    lam = DyadicRational.from_pair(3, 2)
    X = 300
    rep = theorem11_census(lam, X)
    k = rep.k
    brute = 0
    for n in range(1, X + 1):
        v = 3 * 2**n // 4
        if v < 1:
            continue
        digits = []
        w = v
        while w:
            w, d = divmod(w, 3)
            digits.append(d)
        top = digits[::-1][:k]
        if 2 not in top:
            brute += 1
    assert rep.census == brute
    assert rep.exact_count <= rep.census


def test_census_validation():
    with pytest.raises(ValueError):
        theorem11_census(DyadicRational.from_pair(1, 0), 1)


def test_census_bound_check_edges():
    # 25 * X^(389/400) at X = 1: exactly 25
    assert census_bound_check(25, 1)
    assert not census_bound_check(26, 1)
    assert census_bound_check(98, 1000)
