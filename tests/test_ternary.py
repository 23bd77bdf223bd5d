"""Base-3 digits of integers, dyadic rationals, and digit-omission walks."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternpow import (
    DyadicRational,
    InsufficientDigits,
    count_omitting_upto,
    digits_to_int,
    floor_times_pow2,
    int_omits_digit,
    int_to_digits,
    leading_digits,
    next_omitting,
    prev_omitting,
)

nats = st.integers(min_value=0, max_value=10**24)


def _msf(n):
    """All digits of n, most-significant first (empty for zero)."""
    return "".join(str(d) for d in reversed(int_to_digits(n)))


@given(nats)
def test_digit_vector_roundtrip(n):
    assert digits_to_int(int_to_digits(n)) == n
    assert all(d in (0, 1, 2) for d in int_to_digits(n))
    if n:
        assert int_to_digits(n)[-1] != 0  # canonical: no leading zero


@given(st.integers(min_value=1, max_value=10**24))
def test_parse_str_roundtrip(n):
    s = leading_digits(n, len(int_to_digits(n)))
    assert s == _msf(n)
    assert int(s, 3) == n
    assert int("00" + s, 3) == n


def test_known_serialization():
    assert leading_digits(256, 6) == "100111"
    assert int("100111", 3) == 256
    assert int_to_digits(0) == ()


def test_constructor_rejects_junk():
    with pytest.raises(ValueError):
        int_to_digits(-1)
    with pytest.raises(ValueError):
        leading_digits(-1, 1)


def test_digit_accessor_and_zero():
    assert int_to_digits(256) == (1, 1, 1, 0, 0, 1)
    assert int_to_digits(0) == ()
    assert digits_to_int(()) == 0
    with pytest.raises(InsufficientDigits):
        leading_digits(0, 1)  # zero has no digits


def test_pow2_digit2free_exponents():
    free = [n for n in range(101) if int_omits_digit(1 << n, 2)]
    assert free == [0, 2, 8]


@given(nats, st.sampled_from([0, 1, 2]))
def test_omission_checks_agree(n, d):
    assert int_omits_digit(n, d) == (d not in int_to_digits(n))


def test_omission_rejects_bad_digit():
    with pytest.raises(ValueError):
        int_omits_digit(5, 3)
    with pytest.raises(ValueError):
        int_omits_digit(-1, 0)


def test_leading_digits():
    assert leading_digits(1 << 8, 3) == "100"
    assert leading_digits(256, 6) == "100111"
    assert leading_digits(3**40, 41) == "1" + "0" * 40
    assert leading_digits(3**40 - 1, 40) == "2" * 40
    with pytest.raises(InsufficientDigits):
        leading_digits(5, 3)
    with pytest.raises(InsufficientDigits):
        leading_digits(3**40 - 1, 41)
    with pytest.raises(ValueError):
        leading_digits(5, 0)
    with pytest.raises(ValueError):
        leading_digits(5, -1)


def test_leading_digits_of_powers_of_two_match_digit_vectors():
    for l in range(2001):
        full = _msf(1 << l)
        for k in {1, 2, 7, len(full) // 2, len(full)}:
            if 1 <= k <= len(full):
                assert leading_digits(1 << l, k) == full[:k], (l, k)
        with pytest.raises(InsufficientDigits):
            leading_digits(1 << l, len(full) + 1)


def test_dyadic_canonicalization():
    lam = DyadicRational.from_pair(12, 4)
    assert (lam.numerator, lam.exponent) == (3, 2)
    assert lam.value == Fraction(3, 4)
    assert str(lam) == "3/2^2"
    assert str(DyadicRational.from_pair(5, 0)) == "5"
    with pytest.raises(ValueError):
        DyadicRational(4, 1)  # not canonical
    with pytest.raises(ValueError):
        DyadicRational.from_pair(0, 3)
    with pytest.raises(ValueError):
        DyadicRational(1, -1)


def test_dyadic_parse_forms():
    assert DyadicRational.parse("7") == DyadicRational(7, 0)
    assert DyadicRational.parse("7/2^3") == DyadicRational(7, 3)
    assert DyadicRational.parse("7/8") == DyadicRational(7, 3)
    assert DyadicRational.parse(" 6/4 ") == DyadicRational(3, 1)
    with pytest.raises(ValueError):
        DyadicRational.parse("5/6")


@given(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=60),
)
def test_floor_times_pow2_exact(num, s, n):
    lam = DyadicRational.from_pair(num, s)
    expected = (lam.value * 2**n).__floor__()
    assert floor_times_pow2(lam, n) == expected


FORBIDDEN = st.sampled_from([0, 1, 2])


@given(st.integers(min_value=0, max_value=3**8), FORBIDDEN)
def test_next_omitting_is_minimal(x, d):
    y = next_omitting(x, d)
    assert y >= x and int_omits_digit(y, d)
    assert all(not int_omits_digit(z, d) for z in range(x, y))


@given(st.integers(min_value=0, max_value=3**8), FORBIDDEN)
def test_prev_omitting_is_maximal(x, d):
    y = prev_omitting(x, d)
    assert 0 <= y <= x and int_omits_digit(y, d)
    assert all(not int_omits_digit(z, d) for z in range(y + 1, x + 1))


@given(st.integers(min_value=-1, max_value=3**8), FORBIDDEN)
def test_count_omitting_matches_brute(x, d):
    assert count_omitting_upto(x, d) == sum(
        1 for z in range(0, x + 1) if int_omits_digit(z, d)
    )


@given(st.integers(min_value=0, max_value=10**18), FORBIDDEN)
def test_count_omitting_steps_by_membership(x, d):
    delta = count_omitting_upto(x, d) - count_omitting_upto(x - 1, d)
    assert delta == (1 if int_omits_digit(x, d) else 0)


@given(st.integers(min_value=0, max_value=10**15), FORBIDDEN)
def test_next_prev_large_values_are_members(x, d):
    y = next_omitting(x, d)
    z = prev_omitting(x, d)
    assert y >= x and int_omits_digit(y, d)
    assert z <= x and int_omits_digit(z, d)
    # no admissible value sits strictly between x and its neighbors
    assert count_omitting_upto(y - 1, d) == count_omitting_upto(x - 1, d)
    assert count_omitting_upto(x, d) == count_omitting_upto(z, d)
