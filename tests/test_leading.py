"""The leading-digit census, which carries a certified window of
v * 2^G / 3^e between exponents, against the loop that recomputed the exact
v, floor(log3 v) and 3^(digits - k) at every exponent."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternpow import (
    CensusReport,
    DyadicRational,
    census_bound_check,
    cf_log3_2,
    int_omits_digit,
    int_to_digits,
    theorem11_census,
)
from ternpow.orbit import leading
from ternpow.precision import math_floor_log3


def _census_oracle(lam: DyadicRational, X: int) -> CensusReport:
    """The census as first written: a fresh floor(log3 v) and power of 3 per
    exponent, and the exact count read off every hit's full digits."""
    cf = cf_log3_2(40)
    l = 1
    while not (cf.q(l - 1) < X <= cf.q(l)):
        l += 1
    q_lower = cf.q(l - 1)
    k = max(1, math_floor_log3(q_lower) + (0 if 3 ** math_floor_log3(q_lower) == q_lower else 1))

    A, s = lam.numerator, lam.exponent
    census = 0
    exact = 0
    block_length = max(1, q_lower - 1)
    block_counts: list[int] = []
    current_block = 0
    block_index = 0
    for n in range(1, X + 1):
        v = A << n >> s
        if (n - 1) // block_length != block_index:
            block_counts.append(current_block)
            current_block = 0
            block_index = (n - 1) // block_length
        if v < 1:
            continue
        digits = math_floor_log3(v) + 1
        top = v // 3 ** (digits - k) if digits > k else v
        if int_omits_digit(top, 2):
            census += 1
            current_block += 1
            if int_omits_digit(v, 2):
                exact += 1
    block_counts.append(current_block)

    per_block_bound = 6 * 2 ** (k - 1)
    per_block_max = max(block_counts)
    return CensusReport(
        X=X,
        lam=str(lam),
        l=l,
        k=k,
        q_lower=q_lower,
        q_upper=cf.q(l),
        census=census,
        exact_count=exact,
        bound_ok=census_bound_check(census, X),
        prefixes=2 ** (k - 1),
        block_length=block_length,
        per_block_max=per_block_max,
        per_block_bound=per_block_bound,
        per_block_ok=per_block_max <= per_block_bound,
    )


def _assert_matches_oracle(num: int, s: int, X: int) -> CensusReport:
    lam = DyadicRational.from_pair(num, s)
    rep = theorem11_census(lam, X)
    assert rep == _census_oracle(lam, X)
    return rep


@pytest.mark.parametrize("X", [2, 3, 1000, 5000])
def test_census_lambda_one_matches_oracle(X):
    _assert_matches_oracle(1, 0, X)


def test_census_seeded_odd_lambdas_match_oracle():
    rng = random.Random(2005)
    for _ in range(20):
        _assert_matches_oracle(rng.randrange(1, 2000, 2), rng.randint(0, 5), 3000)


def test_boundary_census_on_window_endpoints():
    # 81/2^6 * 2^6 = 81 = 3^4 and 81/2^6 * 2^7 = 162 = 2 * 3^4 sit exactly on
    # the left endpoints of the windows J("1") and J("2")
    rep = _assert_matches_oracle(81, 6, 50)
    assert rep.census > 0


def test_census_power_of_three_lambda_matches_oracle():
    _assert_matches_oracle(729, 0, 3000)


def test_classification_reads_true_digits():
    # X = 2 gives k = 1, and the first value 1999/2^5 * 2 = 124 (11211 in
    # base 3) already has five digits: the exact path, which every n <= s
    # takes, must raise the scale to 3^4 to read its true top digit 1, not
    # the 2 of 124 // 3 = 41 (1112)
    rep = _assert_matches_oracle(1999, 5, 2)
    assert rep.k == 1
    assert rep.census == 2


def test_classify_below_one_has_no_digits():
    # 1/2^40 * 2^n < 1 for every n <= 10: no exponent has a digit to judge
    rep = _assert_matches_oracle(1, 40, 10)
    assert rep.census == rep.exact_count == rep.per_block_max == 0


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=2, max_value=300),
)
def test_dual_routes_agree(num, s, X):
    # the certified window against a fresh floor(log3 v) and power of 3
    _assert_matches_oracle(num, s, X)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=2, max_value=300),
)
def test_classify_matches_integer_floor_digits(num, s, X):
    lam = DyadicRational.from_pair(num, s)
    rep = theorem11_census(lam, X)
    census = exact = 0
    for n in range(1, X + 1):
        v = (num << n) >> s
        full = "".join(str(d) for d in reversed(int_to_digits(v)))
        if v >= 1 and "2" not in full[: rep.k]:
            census += 1
            exact += "2" not in full
    assert (rep.census, rep.exact_count) == (census, exact)


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


def test_census_benchmark_size_pinned():
    # the lambda = 1 census of the digits benchmark, at its central X
    rep = theorem11_census(DyadicRational.from_pair(1, 0), 20000)
    assert (rep.l, rep.k) == (10, 7)
    assert (rep.q_lower, rep.q_upper) == (1054, 24727)
    assert rep.census == 1285
    assert rep.exact_count == 2
    assert rep.block_length == 1053
    assert rep.per_block_max == 73


@pytest.mark.parametrize(
    "X, l, k, q, census, per_block_max",
    [
        (100_000, 12, 10, (50508, 125743), 1920, 972),
        (300_000, 14, 11, (176251, 301994), 3863, 2257),
    ],
)
def test_census_sizes_pinned_beyond_the_exact_loop(X, l, k, q, census, per_block_max):
    # lambda = 1 censuses recorded with the exact loop, whose cost grew
    # quadratically in X
    rep = theorem11_census(DyadicRational.from_pair(1, 0), X)
    assert (rep.l, rep.k) == (l, k)
    assert (rep.q_lower, rep.q_upper) == q
    assert rep.census == census
    assert rep.exact_count == 2
    assert rep.per_block_max == per_block_max


def _count_exact_steps(monkeypatch) -> list[int]:
    calls: list[int] = []
    exact = leading.floor_times_pow2

    def counted(lam, n):
        calls.append(n)
        return exact(lam, n)

    monkeypatch.setattr(leading, "floor_times_pow2", counted)
    return calls


def test_window_without_guard_bits_falls_back_exactly(monkeypatch):
    # with no guard bits the window is undecided time and again; every
    # undecided step recomputes v exactly, so the census must not move
    monkeypatch.setattr(leading, "_GUARD_BITS", 0)
    calls = _count_exact_steps(monkeypatch)
    rng = random.Random(1318)
    lams = [(1, 0), (729, 0), (2**61 - 1, 0), (3**50, 2)]
    lams += [(rng.randrange(1, 2000, 2), rng.randint(0, 5)) for _ in range(6)]
    for num, s in lams:
        calls.clear()
        _assert_matches_oracle(num, s, 2000)
        assert len(calls) > max(s, 1)


@pytest.mark.parametrize("num, s, X", [(1, 0, 20_000), (1999, 5, 300_000)])
def test_window_makes_only_the_seed_steps_exact(monkeypatch, num, s, X):
    calls = _count_exact_steps(monkeypatch)
    theorem11_census(DyadicRational.from_pair(num, s), X)
    assert calls == list(range(1, max(s, 1) + 1))


def test_window_seam_after_the_exact_steps():
    # 5/2^9: n <= 9 are exact (v = 0 up to n = 6, then 1, 2, 5), and n = 10
    # is the first window step, doubling the window seeded from v = 5
    _assert_matches_oracle(5, 9, 10)
    # 1/2^50: every n <= 30 is exact and v = 0, so no window is ever seeded
    rep = _assert_matches_oracle(1, 50, 30)
    assert rep.census == 0


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
