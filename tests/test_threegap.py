"""Arc spectra of the rotation orbit against a brute-force sweep."""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp

from ternpow import GapSpectrum, special_two_length, three_gap, three_gap_bruteforce
from ternpow.errors import InsufficientDepth
from ternpow.orbit.gaps import DEFAULT_GAP_PRECISION, BruteRotationGaps, ulp

PREC = DEFAULT_GAP_PRECISION


def test_formula_matches_brute_sweep(cf14):
    sweep = BruteRotationGaps(cf14, 0, PREC)
    for n_points in range(1, 301):
        sweep.advance()
        spec = three_gap(cf14, 0, n_points, PREC)
        assert len(spec.items) <= 3
        assert sweep.matches_formula(spec, tol_ulps=3), f"N={n_points}"


def test_formula_matches_brute_at_scattered_n(cf14):
    for n_points in (485, 1054, 2000):
        spec = three_gap(cf14, 0, n_points, PREC)
        brute = three_gap_bruteforce(cf14, 0, n_points, PREC)
        assert spec.matches(brute, tol_ulps=3)


def test_spectrum_is_offset_invariant(cf14):
    base = three_gap(cf14, 0, 100, PREC)
    for offset in (Fraction(3, 10), Fraction(1, 7), "0.414"):
        assert three_gap(cf14, offset, 100, PREC) == base
        brute = three_gap_bruteforce(cf14, offset, 100, PREC)
        assert base.matches(brute, tol_ulps=3)


def test_frozen_ladder_at_hundred_points(cf14):
    spec = three_gap(cf14, 0, 100, PREC)
    # 100 = (j+1) q_6 + q_5 + k with q_6 = 65, q_5 = 19: j = 0, k = 16
    assert (spec.n, spec.j, spec.k) == (6, 0, 16)
    assert spec.multiplicities == (17, 36, 48)
    assert sum(spec.multiplicities) == 101


def test_longest_arc_is_sum_of_other_two(cf14):
    with mp.workprec(PREC + 64):
        for n_points in (10, 100, 537):
            spec = three_gap(cf14, 0, n_points, PREC)
            if len(spec.items) == 3:
                a, b, c = spec.lengths
                assert abs((a + b) - c) < mp.mpf(2) ** (-PREC + 10)


def test_two_length_cases(cf14):
    # right before each convergent denominator the spectrum collapses to two
    # arcs, the longer shorter than twice the shorter
    for n in range(1, 9):
        if cf14.q(n + 1) - 1 < 1:
            continue
        assert special_two_length(cf14, n, PREC)


def test_gap_count_per_point(cf14):
    sweep = BruteRotationGaps(cf14, Fraction(1, 3), PREC)
    for _ in range(50):
        sweep.advance()
    assert len(sweep.gaps()) == 51
    with mp.workprec(PREC + 64):
        assert abs(sum(sweep.gaps(), mp.mpf(0)) - 1) < mp.mpf(2) ** (-PREC + 12)


def test_requires_enough_convergents():
    from ternpow import cf_log3_2

    shallow = cf_log3_2(4)
    with pytest.raises(InsufficientDepth):
        three_gap(shallow, 0, 5000, PREC)
    with pytest.raises(ValueError):
        three_gap(shallow, 0, 0, PREC)


def test_rational_theta_rejected():
    with pytest.raises(ValueError):
        BruteRotationGaps(Fraction(2, 7), 0, PREC)
    with pytest.raises(ValueError):
        three_gap_bruteforce(0.5, 0, 10, PREC)


def test_spectrum_validation(cf14):
    with pytest.raises(ValueError):
        GapSpectrum(N=3, prec=PREC, items=())
    with pytest.raises(ValueError):
        GapSpectrum(N=3, prec=PREC, items=((mp.mpf("0.5"), 2),))  # sums to 2
    with pytest.raises(ValueError):
        GapSpectrum(
            N=3,
            prec=PREC,
            items=(
                (mp.mpf("0.1"), 1),
                (mp.mpf("0.2"), 1),
                (mp.mpf("0.3"), 1),
                (mp.mpf("0.4"), 1),
            ),
        )


def test_ulp_scales_with_magnitude():
    with mp.workprec(64):
        assert ulp(mp.mpf(1), 53) == mp.mpf(2) ** (1 - 53)
        assert ulp(mp.mpf(1024), 53) == mp.mpf(2) ** (11 - 53)
    with pytest.raises(ValueError):
        ulp(mp.mpf(0), 53)
