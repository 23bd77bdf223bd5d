"""Continued fraction of log3(2): exact quotients, convergents, growth."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from ternpow import CFExpansion, cf_log3_2, check_lemma22
from ternpow.errors import PrecisionError
from ternpow.precision import alpha0_bounds, power_le

from conftest import certified_sign, iv_prec


def _ladder_sign(p: int, q: int) -> int:
    """Reference sign of 3^p - 2^q for p, q >= 0: literal powers while they
    stay small, else a per-call enclosure of p*log(3) - q*log(2)."""
    if p == 0 and q == 0:
        return 0
    if max(2 * p, q) <= 1 << 21:
        a, b = 3**p, 1 << q
        return (a > b) - (a < b)

    def make(prec):
        with iv_prec(prec):
            return p * iv.log(3) - q * iv.log(2)

    return certified_sign(make)


def _ladder_cf_log3_2(depth: int) -> tuple[int, ...]:
    """Reference quotients from the subtractive power-comparison ladder.

    The state is a pair A > B > 1 of numbers 2^i * 3^j with remainder
    log_B(A); each quotient is the largest m with B^m <= A, found by
    exponential-then-binary search on exact signs of 2^i * 3^j - 1.
    """

    def sign(i: int, j: int) -> int:  # sign of 2^i * 3^j - 1
        if i >= 0 and j >= 0:
            return 1 if (i or j) else 0
        if i <= 0 and j <= 0:
            return -1 if (i or j) else 0
        return _ladder_sign(j, -i) if j > 0 else -_ladder_sign(-j, i)

    quotients = [0]
    iA, jA, iB, jB = 0, 1, 1, 0  # A = 3, B = 2
    for _ in range(depth):
        hi = 1
        while sign(hi * iB - iA, hi * jB - jA) <= 0:
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sign(mid * iB - iA, mid * jB - jA) <= 0:
                lo = mid
            else:
                hi = mid
        quotients.append(lo)
        iA, jA, iB, jB = iB, jB, iA - lo * iB, jA - lo * jB
    return tuple(quotients)


@pytest.fixture(scope="module")
def cf400():
    return cf_log3_2(400)


def test_known_partial_quotients(cf14):
    assert cf14.partial_quotients == (
        0, 1, 1, 1, 2, 2, 3, 1, 5, 2, 23, 2, 2, 1, 1,
    )


def test_known_convergents(cf14):
    qs = [cf14.q(n) for n in range(15)]
    ps = [cf14.p(n) for n in range(15)]
    assert qs == [
        1, 1, 2, 3, 8, 19, 65, 84, 485, 1054,
        24727, 50508, 125743, 176251, 301994,
    ]
    assert ps == [
        0, 1, 1, 2, 5, 12, 41, 53, 306, 665,
        15601, 31867, 79335, 111202, 190537,
    ]
    assert cf14.q(-1) == 0 and cf14.p(-1) == 1


def test_depth_extension_is_consistent(cf40):
    shallow = cf_log3_2(10)
    assert cf40.partial_quotients[:11] == shallow.partial_quotients
    assert cf40.convergents[:11] == shallow.convergents


def test_convergents_alternate_around_target(cf14):
    # even-index convergents sit below log3(2), odd ones above, and the
    # enclosure of log3(2) separates them
    lo, hi = alpha0_bounds(256)
    for n in range(1, cf14.depth + 1):
        frac = Fraction(cf14.p(n), cf14.q(n))
        if n % 2 == 0:
            assert frac < lo
        else:
            assert frac > hi


def test_convergents_approximate_quadratically(cf14):
    lo, hi = alpha0_bounds(256)
    for n in range(1, cf14.depth):
        q, p = cf14.q(n), cf14.p(n)
        err_hi = max(abs(hi - Fraction(p, q)), abs(lo - Fraction(p, q)))
        assert err_hi < Fraction(1, q * cf14.q(n + 1))


def test_validation_rejects_tampered_expansions():
    with pytest.raises(ValueError):
        CFExpansion((1, 2), ((1, 1), (3, 2)))  # a0 must be 0
    good = cf_log3_2(3)
    bad_conv = list(good.convergents)
    bad_conv[-1] = (bad_conv[-1][0] + 1, bad_conv[-1][1])
    with pytest.raises(ValueError):
        CFExpansion(good.partial_quotients, tuple(bad_conv))
    with pytest.raises(ValueError):
        CFExpansion((), ())
    with pytest.raises(ValueError):
        cf_log3_2(0)


def test_determinant_identity(cf14):
    for n in range(1, cf14.depth + 1):
        det = cf14.p(n - 1) * cf14.q(n) - cf14.p(n) * cf14.q(n - 1)
        assert det == (-1) ** n


def test_growth_check_all_pass(cf40):
    verdicts = check_lemma22(cf40)
    assert len(verdicts) == 40
    assert all(verdicts)


def test_growth_check_is_exact_power_comparison():
    # a synthetic expansion with one enormous quotient must fail the bound
    huge = CFExpansion.from_quotients((0, 1, 10**40))
    verdicts = check_lemma22(huge)
    assert verdicts[0] is True
    assert verdicts[1] is False
    # q_1 = 2 and q_2 = 2a + 1 around the largest q_2 = 12102642 with
    # q_2^10 <= 1200^10 * 2^133
    assert check_lemma22(CFExpansion.from_quotients((0, 2, 6051320))) == [True, True]
    assert check_lemma22(CFExpansion.from_quotients((0, 2, 6051321))) == [True, False]
    with pytest.raises(ValueError):
        check_lemma22(CFExpansion.from_quotients((0,)))


def test_enclosure_quotients_match_power_ladder(cf400):
    assert cf400.partial_quotients == _ladder_cf_log3_2(400)
    for depth in (1, 2, 5, 17):
        assert cf_log3_2(depth).partial_quotients == _ladder_cf_log3_2(depth)


def test_cap_frontier_at_minimum_precision():
    # a 256-bit enclosure of log3(2) certifies exactly 78 quotients
    assert cf_log3_2(78, cap=256).depth == 78
    with pytest.raises(PrecisionError):
        cf_log3_2(79, cap=256)
    assert cf_log3_2(79).depth == 79  # the default cap goes further


def _lemma22_literal(qn: int, qn1: int) -> bool:
    return qn**10 <= 1200**10 * qn1**133


def test_growth_check_matches_literal_powers(cf400):
    literal = [_lemma22_literal(cf400.q(n), cf400.q(n - 1)) for n in range(1, 401)]
    assert check_lemma22(cf400) == literal


def _lemma22_power_le(qn: int, qn1: int) -> bool:
    return power_le(qn, 10, (1200, 10), (qn1, 133))


def test_growth_check_bit_length_shortcut_at_corners():
    # power_le's bracket shortcut is tightest where b is near 13.3 * c, so
    # sweep the ends of each bit-length range across that band
    for c in range(1, 41):
        for qn1 in (1 << (c - 1), (1 << c) - 1):
            for b in range(max(1, 13 * c - 20), 14 * c + 21):
                for qn in (1 << (b - 1), (1 << b) - 1):
                    assert _lemma22_power_le(qn, qn1) == _lemma22_literal(qn, qn1)


@given(st.data())
def test_growth_check_bit_length_shortcut_near_boundary(data):
    # power_le's literal fallback only runs when b is near 13.3 * c, so
    # sample there
    c = data.draw(st.integers(min_value=1, max_value=40))
    b = data.draw(st.integers(min_value=max(1, 13 * c - 20), max_value=14 * c + 20))
    qn = data.draw(st.integers(min_value=1 << (b - 1), max_value=(1 << b) - 1))
    qn1 = data.draw(st.integers(min_value=1 << (c - 1), max_value=(1 << c) - 1))
    assert _lemma22_power_le(qn, qn1) == _lemma22_literal(qn, qn1)
