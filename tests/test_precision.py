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
    alpha0_iv,
    certified_floor,
    certified_less_than,
    certified_sign,
    compare_power3_power2,
    escalate,
    fraction_to_iv,
    iv_endpoints,
    iv_prec,
    log3_iv,
    math_floor_log3,
    mpf_to_fraction,
    precision_cap,
    ulp,
)


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


def test_precision_cap_env_and_floor(monkeypatch):
    monkeypatch.delenv("TERNARY_PRECISION_CAP", raising=False)
    assert precision_cap() == DEFAULT_PRECISION_CAP
    monkeypatch.setenv("TERNARY_PRECISION_CAP", "2048")
    assert precision_cap() == 2048
    assert precision_cap(4096) == 4096  # explicit override wins
    with pytest.raises(ValueError):
        precision_cap(MIN_PRECISION - 1)


@given(
    st.integers(min_value=-(10**18), max_value=10**18).filter(bool),
    st.integers(min_value=1, max_value=10**18),
)
def test_fraction_to_iv_encloses_tightly(num, den):
    fr = Fraction(num, den)
    prec = 128
    lo, hi = iv_endpoints(fraction_to_iv(fr, prec))
    assert lo <= fr <= hi
    assert hi - lo <= Fraction(1, 2**prec)


def test_mpf_to_fraction_is_exact():
    with mp.workprec(80):
        x = mp.mpf(3) / 4
    assert mpf_to_fraction(x) == Fraction(3, 4)
    assert mpf_to_fraction(5) == Fraction(5)
    with pytest.raises(ValueError):
        mpf_to_fraction(mp.inf)


def test_alpha0_and_log3_enclosures_bracket_truth():
    lo, hi = iv_endpoints(alpha0_iv(128))
    # consecutive convergents of log3(2) straddle it: 41/65 < alpha0 < 53/84
    assert lo < hi
    assert Fraction(41, 65) < lo and hi < Fraction(53, 84)
    assert hi - lo < Fraction(1, 2**100)
    lo2, hi2 = iv_endpoints(log3_iv(9, 128))
    assert lo2 <= 2 <= hi2
    assert hi2 - lo2 < Fraction(1, 2**100)
    with pytest.raises(ValueError):
        log3_iv(0, 128)


def test_certified_sign_and_comparisons():
    def make_pos(prec):
        with iv_prec(prec):
            return 2 * iv.log(3) - 3 * iv.log(2)  # log(9/8) > 0

    def make_neg(prec):
        with iv_prec(prec):
            return 3 * iv.log(2) - 2 * iv.log(3)

    assert certified_sign(make_pos) == 1
    assert certified_sign(make_neg) == -1
    assert certified_less_than(make_neg, Fraction(0))
    assert not certified_less_than(make_pos, Fraction(0))


def test_certified_floor_and_ceil():
    def make(prec):
        with iv_prec(prec):
            return iv.mpf(19) * alpha0_iv(prec)  # 19 * log3(2) = 11.98766...

    assert certified_floor(make) == 11
    # the ceiling is minus the floor of the negated enclosure
    assert -certified_floor(lambda prec: -make(prec)) == 12


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


def test_ulp_scales_with_magnitude():
    with mp.workprec(64):
        assert ulp(mp.mpf(1), 53) == mp.mpf(2) ** (1 - 53)
        assert ulp(mp.mpf(1024), 53) == mp.mpf(2) ** (11 - 53)
    with pytest.raises(ValueError):
        ulp(mp.mpf(0), 53)
