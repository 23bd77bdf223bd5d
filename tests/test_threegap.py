"""Arc spectra of the rotation orbit against a brute-force sweep and mpmath."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from mpmath import mp

from conftest import mp_fraction
from ternpow import GapSpectrum, cf_log3_2, special_two_length, three_gap, three_gap_bruteforce
from ternpow.cli import dispatch
from ternpow.errors import InsufficientDepth, PrecisionError
from ternpow.orbit.gaps import BruteRotationGaps, _spectrum_at
from ternpow.precision import MIN_PRECISION, alpha0_bounds


def test_formula_matches_brute_sweep(cf14):
    for offset in (0, Fraction(3, 97)):
        sweep = BruteRotationGaps(cf14, offset)
        for n_points in range(1, 301):
            sweep.advance()
            spec = three_gap(cf14, offset, n_points)
            assert sweep.matches_formula(spec), f"N={n_points} offset={offset}"
            assert sweep.spectrum() == GapSpectrum(spec.N, spec.prec, spec.items)


def test_formula_matches_brute_at_scattered_n(cf14):
    cases = ((485, 0), (2000, Fraction(3, 10)), (5000, 0), (14986, Fraction(3, 97)))
    for n_points, offset in cases:
        spec = three_gap(cf14, offset, n_points)
        brute = three_gap_bruteforce(cf14, offset, n_points, spec.prec)
        assert spec.matches(brute), n_points
        assert brute.items == spec.items


def test_spectrum_is_offset_invariant(cf14):
    base = three_gap(cf14, 0, 100)
    for offset in (Fraction(3, 10), Fraction(1, 7), "0.414", -2.5):
        assert three_gap(cf14, offset, 100) == base
        assert base.matches(three_gap_bruteforce(cf14, offset, 100))


def test_frozen_ladder_at_hundred_points(cf14):
    spec = three_gap(cf14, 0, 100)
    # 100 = (j+1) q_6 + q_5 + k with q_6 = 65, q_5 = 19: j = 0, k = 16
    assert (spec.n, spec.j, spec.k) == (6, 0, 16)
    assert spec.multiplicities == (17, 36, 48)
    assert sum(spec.multiplicities) == 101


def test_longest_arc_is_sum_of_other_two(cf14):
    for n_points in (10, 100, 537):
        for spec in (three_gap(cf14, 0, n_points), three_gap_bruteforce(cf14, 0, n_points)):
            if len(spec.items) == 3:
                a, b, c = spec.lengths
                assert a + b == c


def test_two_length_cases(cf40):
    # right before each convergent denominator the spectrum collapses to two
    # arcs, the longer shorter than twice the shorter
    for n in range(1, 39):
        assert special_two_length(cf40, n)


def test_two_length_cases_are_decided_by_the_enclosures(cf40):
    with mp.workprec(512):
        theta = mp.log(2) / mp.log(3)
        for n in range(1, 39):
            spec = three_gap(cf40, 0, cf40.q(n + 1) - 1)
            (small_lo, small_hi), (big_lo, big_hi) = spec.bounds
            assert small_hi < big_lo and big_hi < 2 * small_lo
            small, big = sorted(abs(_mpf_labeled(cf40, spec, theta)[i]) for i in (0, 1))
            assert small < big < 2 * small


def test_gap_count_per_point(cf14):
    sweep = BruteRotationGaps(cf14, Fraction(1, 3))
    for _ in range(50):
        sweep.advance()
    assert len(sweep.gaps()) == 51
    # every gap is an exact dyadic, so they sum to exactly one
    with mp.workprec(MIN_PRECISION + 64):
        assert sum(sweep.gaps(), mp.mpf(0)) == 1


def test_requires_enough_convergents():
    shallow = cf_log3_2(4)
    with pytest.raises(InsufficientDepth):
        three_gap(shallow, 0, 5000)
    with pytest.raises(ValueError):
        three_gap(shallow, 0, 0)


def test_rational_theta_rejected():
    with pytest.raises(ValueError):
        BruteRotationGaps(Fraction(2, 7), 0)
    with pytest.raises(ValueError):
        three_gap_bruteforce(0.5, 0, 10)
    with pytest.raises(ValueError):
        three_gap(Fraction(2, 7), 0, 10)


def test_spectrum_validation():
    third = Fraction(1, 3)
    with pytest.raises(ValueError):
        GapSpectrum(N=3, prec=MIN_PRECISION, items=())
    with pytest.raises(ValueError):
        GapSpectrum(N=3, prec=MIN_PRECISION, items=((Fraction(1, 2), 2),))  # sums to 2
    with pytest.raises(ValueError):
        GapSpectrum(
            N=3,
            prec=MIN_PRECISION,
            items=tuple((Fraction(i, 10), 1) for i in range(1, 5)),
        )
    with pytest.raises(ValueError):  # not ascending
        GapSpectrum(N=2, prec=MIN_PRECISION, items=((2 * third, 1), (third, 2)))
    with pytest.raises(ValueError):  # the largest is not the sum of the others
        GapSpectrum(
            N=2,
            prec=MIN_PRECISION,
            items=((Fraction(1, 10), 1), (Fraction(2, 10), 1), (Fraction(4, 10), 1)),
        )
    assert GapSpectrum(N=1, prec=MIN_PRECISION, items=((third, 1), (2 * third, 1)))


def test_escalation_raises_past_the_cap():
    cf = cf_log3_2(120)
    assert three_gap(cf, 0, 10**40).prec == 2 * MIN_PRECISION
    with pytest.raises(PrecisionError):
        three_gap(cf, 0, 10**40, cap=MIN_PRECISION)


def test_low_precision_attempts_certify_or_decline(cf40):
    # below MIN_PRECISION the theta bracket is wide enough for a sign to flip
    # or two enclosures to overlap; an attempt then declines rather than
    # returning enclosures that miss the true lengths or misorder them
    with mp.workprec(512):
        theta = mp.log(2) / mp.log(3)
        for N in (10, 100, 1000, 10**6, 10**12):
            declined = 0
            for prec in range(2, 64):
                spec = _spectrum_at(cf40, N, prec)
                if spec is None:
                    declined += 1
                    continue
                truth = [mp_fraction(v) for v in _mpf_labeled(cf40, spec, theta)]
                for ((lo, hi), _), value in zip(spec.labeled, truth):
                    assert lo <= value <= hi, (N, prec)
                kept = sorted(v for v, (_, m) in zip(truth, spec.labeled) if m)
                for value, (lo, hi) in zip(kept, spec.bounds):
                    assert lo <= value <= hi, (N, prec)
            assert declined, N


def _mpf_three_gap(cf, N: int, prec: int):
    """The earlier closed form in mpmath floats at ``prec`` + 64 bits of the
    rounded theta: ((n, j, k), labeled (length, multiplicity) pairs, and the
    multiplicities of the nonzero arcs in ascending length).  Oracle for the
    ladder and the multiplicities of the exact enclosures."""
    with mp.workprec(prec):
        theta = mp.log(2) / mp.log(3)
    n = 0
    while not (cf.q(n) + cf.q(n - 1) <= N < cf.q(n + 1) + cf.q(n)):
        n += 1
    qn, qn1 = cf.q(n), cf.q(n - 1)
    j1 = (N - qn1) // qn
    k = N - j1 * qn - qn1
    with mp.workprec(prec + 64):
        delta_n = qn * theta - cf.p(n)
        delta_n1 = qn1 * theta - cf.p(n - 1)
        L1 = abs(delta_n)
        L2 = abs(delta_n1 + j1 * delta_n)
        L3 = L1 + L2
    labeled = ((L1, (j1 - 1) * qn + qn1 + k + 1), (L2, k + 1), (L3, qn - (k + 1)))
    kept = sorted((L, m) for L, m in labeled if m > 0)
    return (n, j1 - 1, k), labeled, tuple(m for _, m in kept)


def _mpf_labeled(cf, spec: GapSpectrum, theta) -> tuple:
    """L1, L2, L3 at the mpmath value ``theta``, for the ladder of ``spec``."""
    n, j1 = spec.n, spec.j + 1
    delta_n = cf.q(n) * theta - cf.p(n)
    L1 = abs(delta_n)
    L2 = abs(cf.q(n - 1) * theta - cf.p(n - 1) + j1 * delta_n)
    return L1, L2, L1 + L2


def _oracle_points(cf) -> list[int]:
    points = [1, 2, 100, 10**6, 10**9, 10**12, 10**40]
    for n in (5, 13, 40):
        points += [cf.q(n) - 1, cf.q(n) + cf.q(n - 1)]
    return points


@pytest.mark.parametrize("offset", ["0", "3/97"])
def test_printed_enclosures_hold_mpmath_values(offset):
    cf = cf_log3_2(120)
    for N in _oracle_points(cf):
        text, code = dispatch(["three-gap", "--N", str(N), f"--offset={offset}"])
        assert code == 0
        res = json.loads(text)["results"]
        prec = res["prec"]
        ladder, labeled, _ = _mpf_three_gap(cf, N, prec)
        assert tuple(int(res["ladder"][key]) for key in "njk") == ladder, N
        printed = [
            ((Fraction(a["lo"]), Fraction(a["hi"])), int(a["multiplicity"]))
            for a in res["labeled"]
        ]
        assert [m for _, m in printed] == [m for _, m in labeled], N
        spec = three_gap(cf, 0, N)
        with mp.workprec(2 * prec):
            truth = [mp_fraction(v) for v in _mpf_labeled(cf, spec, mp.log(2) / mp.log(3))]
        for ((lo, hi), _), value in zip(printed, truth):
            assert lo <= value <= hi, N
        # the arcs are the labeled lengths with nonzero multiplicity, ascending
        arcs = [
            ((Fraction(a["lo"]), Fraction(a["hi"])), int(a["multiplicity"])) for a in res["arcs"]
        ]
        assert arcs == sorted(arc for arc in printed if arc[1]), N


def test_widths_are_slope_times_bracket():
    cf = cf_log3_2(120)
    for N in _oracle_points(cf):
        spec = three_gap(cf, 0, N)
        lo, hi = alpha0_bounds(spec.prec)
        qn, qn1, j1 = cf.q(spec.n), cf.q(spec.n - 1), spec.j + 1
        # L1 = |delta_n|, L2 = |delta_{n-1} + (j+1) delta_n|, and L3 = L1 + L2,
        # where delta_n and delta_{n-1} have opposite signs
        slopes = (qn, j1 * qn + qn1, abs(qn - j1 * qn - qn1))
        for ((a, b), _), slope in zip(spec.labeled, slopes):
            assert 0 <= b - a <= slope * (hi - lo), N


def test_ladder_and_multiplicities_match_the_mpf_formula():
    cf = cf_log3_2(120)
    for N in [*range(1, 301), *_oracle_points(cf)]:
        spec = three_gap(cf, 0, N)
        ladder, labeled, multiplicities = _mpf_three_gap(cf, N, spec.prec)
        assert (spec.n, spec.j, spec.k) == ladder, N
        assert tuple(m for _, m in spec.labeled) == tuple(m for _, m in labeled), N
        assert spec.multiplicities == multiplicities, N
