"""Base-3 digits of integers, dyadic rationals, and the digit-2-free coding."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternpow import (
    DyadicRational,
    InsufficientDigits,
    count_free_upto,
    floor_times_pow2,
    int_omits_digit,
    int_to_digits,
    leading_digits,
    nth_free,
)

nats = st.integers(min_value=0, max_value=10**24)


def _msf(n):
    """All digits of n, most-significant first (empty for zero)."""
    return "".join(str(d) for d in reversed(int_to_digits(n)))


def _from_digits(digits):
    """The integer with the given ternary digits, least-significant first."""
    return sum(d * 3**i for i, d in enumerate(digits))


@given(nats)
def test_digit_vector_roundtrip(n):
    assert _from_digits(int_to_digits(n)) == n
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


def _brute_free(x):
    return [z for z in range(x + 1) if int_omits_digit(z, 2)]


def _next_free(x):
    """Least digit-2-free y >= x, by rank: count below x, then that index."""
    return nth_free(count_free_upto(x - 1))


def _prev_free(x):
    """Greatest digit-2-free y <= x, by rank."""
    return nth_free(count_free_upto(x) - 1)


def test_nth_free_is_increasing_and_onto():
    free = _brute_free(3**8)
    assert [nth_free(t) for t in range(len(free))] == free
    assert nth_free(len(free)) > 3**8


@given(st.integers(min_value=0, max_value=2**60))
def test_count_free_inverts_nth_free(t):
    n = nth_free(t)
    assert int_omits_digit(n, 2)
    assert nth_free(t + 1) > n
    assert count_free_upto(n) == t + 1


@given(st.integers(min_value=0, max_value=3**8))
def test_next_omitting_is_minimal(x):
    y = _next_free(x)
    assert y >= x and int_omits_digit(y, 2)
    assert all(not int_omits_digit(z, 2) for z in range(x, y))


@given(st.integers(min_value=0, max_value=3**8))
def test_prev_omitting_is_maximal(x):
    y = _prev_free(x)
    assert 0 <= y <= x and int_omits_digit(y, 2)
    assert all(not int_omits_digit(z, 2) for z in range(y + 1, x + 1))


@given(st.integers(min_value=-1, max_value=3**8))
def test_count_omitting_matches_brute(x):
    assert count_free_upto(x) == len(_brute_free(x))


@given(st.integers(min_value=0, max_value=10**18))
def test_count_omitting_steps_by_membership(x):
    delta = count_free_upto(x) - count_free_upto(x - 1)
    assert delta == (1 if int_omits_digit(x, 2) else 0)


@given(st.integers(min_value=0, max_value=10**15))
def test_next_prev_large_values_are_members(x):
    y = _next_free(x)
    z = _prev_free(x)
    assert y >= x and int_omits_digit(y, 2)
    assert z <= x and int_omits_digit(z, 2)
    # no admissible value sits strictly between x and its neighbors
    assert count_free_upto(y - 1) == count_free_upto(x - 1)
    assert count_free_upto(x) == count_free_upto(z)
