"""Certified interval decisions: escalation, exact comparisons, enclosures."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv, mp

from ternpow import cf_log3_2, int_to_digits
from ternpow.errors import PrecisionError
from ternpow.precision import (
    DEFAULT_PRECISION_CAP,
    MIN_PRECISION,
    _atanh_floor,
    _power_bracket,
    alpha0_bounds,
    certified_floor,
    certified_less_than,
    compare_power3_power2,
    escalate,
    log3_bounds,
    math_floor_log3,
    power_le,
)
from ternpow import census_bound_check, narkiewicz_check

from conftest import certified_sign, iv_endpoints, iv_prec, mp_fraction


def test_escalate_runs_until_decidable():
    calls = []

    def attempt(prec):
        calls.append(prec)
        return "ok" if prec >= 1024 else None

    assert escalate(attempt, start=256) == "ok"
    assert calls == [256, 512, 1024]


def test_escalate_raises_at_cap():
    with pytest.raises(PrecisionError):
        escalate(lambda prec: None, start=256, cap=512, what="never decides")


def _last_precision_tried(**kwargs) -> int:
    """Largest precision escalate tries before giving up."""
    tried = []

    def never(prec):
        tried.append(prec)
        return None

    with pytest.raises(PrecisionError):
        escalate(never, **kwargs)
    return tried[-1]


def test_precision_cap_env_and_floor(monkeypatch):
    # the cap is an argument only: the environment no longer reaches it
    monkeypatch.delenv("TERNARY_PRECISION_CAP", raising=False)
    assert _last_precision_tried() == DEFAULT_PRECISION_CAP
    monkeypatch.setenv("TERNARY_PRECISION_CAP", "2048")
    assert _last_precision_tried() == DEFAULT_PRECISION_CAP
    assert _last_precision_tried(cap=2048) == 2048
    assert _last_precision_tried(cap=4096) == 4096
    with pytest.raises(ValueError):
        escalate(lambda prec: "unused", cap=MIN_PRECISION - 1)


def _exact_mpf(man: int, shift: int):
    with mp.workprec(max(abs(man).bit_length(), 8) + 4):
        return mp.mpf(man) * mp.mpf(2) ** shift


def _iv_alpha0(prec: int):
    """mpmath's interval enclosure of log3(2) at ``prec`` bits."""
    with iv_prec(prec):
        return iv.log(2) / iv.log(3)


def _iv_log3(value, prec: int):
    """mpmath's interval enclosure of log3(value) at ``prec`` bits, with the
    rational entering as outward-rounded dyadic endpoints."""
    fr = Fraction(value)
    scaled = fr.numerator << prec
    lo_man = scaled // fr.denominator
    hi_man = lo_man if lo_man * fr.denominator == scaled else lo_man + 1
    with iv_prec(prec + 8):
        x = iv.mpf([_exact_mpf(lo_man, -prec), _exact_mpf(hi_man, -prec)])
    with iv_prec(prec):
        return iv.log(x) / iv.log(3)


def test_alpha0_and_log3_enclosures_bracket_truth():
    lo, hi = alpha0_bounds(128)
    # consecutive convergents of log3(2) straddle it: 41/65 < alpha0 < 53/84
    assert lo < hi
    assert Fraction(41, 65) < lo and hi < Fraction(53, 84)
    assert hi - lo < Fraction(1, 2**100)
    # 3^20959 < 10^10000 < 3^20960, so 2.0959 < log3(10) < 2.0960
    assert 3**20959 < 10**10000 < 3**20960
    lo2, hi2 = log3_bounds(10, 128)
    assert Fraction(20959, 10000) < lo2 < hi2 < Fraction(20960, 10000)
    assert hi2 - lo2 < Fraction(1, 2**100)
    assert log3_bounds(9, 128) == (2, 2)
    for bad in (0, -3, Fraction(-1, 9)):
        with pytest.raises(ValueError):
            log3_bounds(bad, 128)


def _mp_log3(value, prec: int) -> Fraction:
    """log3(value) from mpmath floats at twice the precision."""
    fr = Fraction(value)
    with mp.workprec(2 * prec):
        return mp_fraction(mp.log(mp.mpf(fr.numerator) / fr.denominator) / mp.log(3))


ORACLE_PRECISIONS = [128, 256, 1024, 4096]


def _assert_log3_agrees_with_mpmath(value, prec: int) -> None:
    lo, hi = log3_bounds(value, prec)
    iv_lo, iv_hi = iv_endpoints(_iv_log3(value, prec))
    assert lo <= iv_hi and iv_lo <= hi, (value, prec)
    assert lo <= _mp_log3(value, prec) <= hi, (value, prec)
    assert hi - lo <= Fraction(4, 2**prec), (value, prec)
    assert lo.denominator <= 2**prec and hi.denominator <= 2**prec


@pytest.mark.parametrize("prec", ORACLE_PRECISIONS)
def test_bounds_equal_interval_endpoints(prec):
    # log 2, log 3 and their quotient each rounded outward to prec bits give
    # the endpoints of mpmath's interval quotient, so escalations over them
    # (continued fraction, power comparisons) step as interval arithmetic does
    lo, hi = alpha0_bounds(prec)
    assert (lo, hi) == iv_endpoints(_iv_alpha0(prec))
    with mp.workprec(2 * prec):
        truth = mp_fraction(mp.log(2) / mp.log(3))
    assert lo < truth < hi
    assert hi - lo <= Fraction(4, 2**prec)
    assert lo.denominator <= 2**prec and hi.denominator <= 2**prec


def test_alpha0_bounds_at_256_bits_certify_78_quotients():
    # the count the cf_log3_2 docstring promises for a 256-bit enclosure
    assert cf_log3_2(78, cap=256).depth == 78


@pytest.mark.parametrize("prec", ORACLE_PRECISIONS)
def test_log3_bounds_agree_with_mpmath_oracle(prec):
    values = [1 + Fraction(1, 2**300), 1 - Fraction(1, 2**300)]
    values += [2, Fraction(1, 2), 2**64, Fraction(1, 2**64), 2**1000, Fraction(1, 2**100)]
    values += [5, 10, 26, 28, 10**30 + 7, 2**300 + 1, Fraction(1, 7), Fraction(8, 3)]
    values += [Fraction(10**20 + 1, 10**20), Fraction(2**257 - 1, 2**256)]
    values += [Fraction(3**40 + 1, 3**40), Fraction(1, 3**5 + 1), 3**40 - 1]
    values += [1 + Fraction(1, 2**65 * 9)]
    for value in values:
        _assert_log3_agrees_with_mpmath(value, prec)
    # far below 2^-prec the rational's dyadic floor is 0, and an interval
    # built from it has no finite log; the series reads the rational itself
    tiny = Fraction(1, 2**1000)
    lo, hi = log3_bounds(tiny, prec)
    assert lo <= _mp_log3(tiny, prec) <= hi
    assert hi - lo <= Fraction(4, 2**prec)


@pytest.mark.parametrize("prec", ORACLE_PRECISIONS)
@given(
    st.integers(min_value=1, max_value=10**18),
    st.integers(min_value=1, max_value=10**18),
)
def test_log3_bounds_agree_with_mpmath_on_rationals(prec, num, den):
    _assert_log3_agrees_with_mpmath(Fraction(num, den), prec)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([1, 8, 64, 300]),
)
def test_atanh_sum_error_bound(a, b, bits):
    a = min(a, b // 3)  # a / b <= 1/3
    s, n = _atanh_floor(a, b, bits)
    with mp.workprec(2 * bits + 64):
        truth = mp_fraction(mp.atanh(mp.mpf(a) / b) * mp.mpf(2) ** bits)
    assert s <= truth < s + n


@pytest.mark.parametrize("prec", [128, 256, 1024])
def test_log3_bounds_exact_at_powers_of_3(prec):
    for e in (0, 1, 2, 5, 40, 400):
        assert log3_bounds(3**e, prec) == (e, e)
        assert log3_bounds(Fraction(1, 3**e), prec) == (-e, -e)
    # the interval route already gives the point 0 at 1
    assert iv_endpoints(_iv_log3(1, prec)) == (0, 0)


def test_certified_sign_and_comparisons():
    def iv_pos(prec):
        with iv_prec(prec):
            return 2 * iv.log(3) - 3 * iv.log(2)  # log(9/8) > 0

    assert certified_sign(iv_pos) == 1
    assert certified_sign(lambda prec: -iv_pos(prec)) == -1

    def make_pos(prec):  # 2 - 3 * log3(2) = log3(9/8) > 0
        lo, hi = alpha0_bounds(prec)
        return 2 - 3 * hi, 2 - 3 * lo

    def make_neg(prec):
        lo, hi = make_pos(prec)
        return -hi, -lo

    assert certified_less_than(make_neg, Fraction(0))
    assert not certified_less_than(make_pos, Fraction(0))


def test_certified_floor_and_ceil():
    def make(prec):  # 19 * log3(2) = 11.98766...
        lo, hi = alpha0_bounds(prec)
        return 19 * lo, 19 * hi

    def negated(prec):
        lo, hi = make(prec)
        return -hi, -lo

    assert certified_floor(make) == 11
    # the ceiling is minus the floor of the negated enclosure
    assert -certified_floor(negated) == 12


def test_compare_power3_power2_literal_regime():
    assert compare_power3_power2(0, 0) == 0
    assert compare_power3_power2(12, 19) == 1  # 531441 > 524288
    assert compare_power3_power2(2, 4) == -1  # 9 < 16
    assert compare_power3_power2(1, 1) == 1


def _literal_sign(p: int, q: int) -> int:
    a, b = 3**p, 1 << q
    return (a > b) - (a < b)


def test_compare_power3_power2_matches_literal_near_convergents():
    # convergents p_n/q_n of log3(2) make 3^p - 2^q as small as it gets
    # relative to its size, so they and their neighbours are the hardest pairs
    cf = cf_log3_2(40)
    pairs = []
    for n in range(cf.depth + 1):
        p, q = cf.p(n), cf.q(n)
        if q > 1 << 20:
            break
        pairs += [(p, q), (p, q + 1), (p, q - 1), (p + 1, q), (p - 1, q)]
    assert cf.q(len(pairs) // 5) > 1 << 20  # every convergent below 2^20 is in
    for p, q in pairs:
        if p >= 0 and q >= 0:
            assert compare_power3_power2(p, q) == _literal_sign(p, q), (p, q)


@given(
    st.integers(min_value=0, max_value=1 << 15),
    st.integers(min_value=0, max_value=1 << 16),
)
def test_compare_power3_power2_matches_literal_small(p, q):
    assert compare_power3_power2(p, q) == _literal_sign(p, q)


def test_compare_power3_power2_negative_exponents():
    # 3^-1 < 2^0 and 3^0 > 2^-1; 3^-2 > 2^-4 because 16 > 9
    assert compare_power3_power2(-1, 0) == -1
    assert compare_power3_power2(0, -1) == 1
    assert compare_power3_power2(-2, -4) == 1
    assert compare_power3_power2(-12, -19) == -1


def test_compare_power3_power2_deep_convergents_alternate():
    # p_n/q_n lies above log3(2) for odd n and below for even n, so
    # 3^p_n - 2^q_n alternates in sign; the negated pair flips it.  Deep
    # convergents force escalation far past the starting precision.
    cf = cf_log3_2(200)
    for n in range(1, cf.depth + 1):
        p, q = cf.p(n), cf.q(n)
        expected = 1 if n % 2 else -1
        assert compare_power3_power2(p, q) == expected, n
        assert compare_power3_power2(-p, -q) == -expected, n


def test_compare_power3_power2_interval_regime_consistent():
    # sign(3^p - 2^q) is invariant under raising both sides to the k-th
    # power, so scaling a literal-regime pair into the interval regime must
    # preserve the answer
    k = 1 << 18
    assert compare_power3_power2(12 * k, 19 * k) == 1
    assert compare_power3_power2(2 * k, 4 * k) == -1


@given(st.integers(min_value=1, max_value=10**30))
def test_math_floor_log3_matches_digit_length(x):
    e = math_floor_log3(x)
    assert 3**e <= x < 3 ** (e + 1)
    assert len(int_to_digits(x)) == e + 1


def test_ternary_length_zero():
    assert len(int_to_digits(0)) == 0
    with pytest.raises(ValueError):
        math_floor_log3(0)
    with pytest.raises(ValueError):
        math_floor_log3(-3)


def _literal_le(a, e, *factors):
    rhs = 1
    for b, f in factors:
        rhs *= b**f
    return a**e <= rhs


@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=300),
)
def test_power_le_matches_literal_powers(a, e, b, f, c, g):
    assert power_le(a, e, (b, f), (c, g)) == _literal_le(a, e, (b, f), (c, g))
    assert power_le(a, e, (b, f)) == _literal_le(a, e, (b, f))


@given(
    st.integers(min_value=2, max_value=10**4),
    st.integers(min_value=1, max_value=300),
)
def test_power_le_ties_fall_back_to_literal_powers(a, e):
    # equal sides, and sides one apart, are closer than any bracket
    assert power_le(a, e, (a, e))
    assert power_le(a, e, (a, e - 1), (a, 1))
    assert power_le(a, e, (a**e, 1))
    assert not power_le(a, e, (a**e - 1, 1))
    assert power_le(a**e - 1, 1, (a, e))
    assert not power_le(a**e + 1, 1, (a, e))


@given(
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=3000),
)
def test_power_bracket_encloses_the_power(b, f):
    exact = b**f
    (m_lo, x_lo), (m_hi, x_hi) = (_power_bracket(((b, f),), up) for up in (False, True))
    assert m_lo << x_lo <= exact <= m_hi << x_hi
    assert m_hi.bit_length() <= 129
    # the rounding loses at most a factor 1 + 2^-100 at these exponents
    assert (m_hi << x_hi) - (m_lo << x_lo) <= exact >> 100


def test_power_law_bounds_at_their_edges():
    # count = 0: the left side is 0 for a positive exponent, and 0^0 = 1
    assert power_le(0, 100000, (81, 100000), (7, 63093))
    assert narkiewicz_check(0, 1)
    assert power_le(0, 0, (1, 5))
    assert not power_le(0, 0, (0, 5))
    # exact equalities the brackets cannot separate
    assert census_bound_check(25, 1)
    assert not census_bound_check(26, 1)
    assert power_le(2, 100000, (2, 100000), (1, 63093))  # tilde bound, (2, 1)
    assert not power_le(3, 100000, (2, 100000), (1, 63093))
    assert narkiewicz_check(1, 1) and not narkiewicz_check(2, 1)
    # around the Narkiewicz bound 1.62 * X^0.63093 = 541.05 at X = 10^4
    assert narkiewicz_check(541, 10**4) and not narkiewicz_check(542, 10**4)
    for count in (540, 541, 542):
        assert narkiewicz_check(count, 10**4) == _literal_le(
            50 * count, 100000, (81, 100000), (10**4, 63093)
        )
    with pytest.raises(ValueError):
        power_le(-1, 2, (3, 4))
    with pytest.raises(ValueError):
        power_le(1, 2, (3, -4))
