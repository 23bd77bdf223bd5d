"""Residue sieves for digit-2-free values of floor(lambda * 2^n)."""

from __future__ import annotations

import random
from fractions import Fraction

import ternpow.sieve

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternpow import (
    DyadicRational,
    InsufficientDigits,
    PadicApprox,
    SieveReport,
    TildeCount,
    count_N,
    count_tilde_N,
    enumerate_digit2free_powers,
    int_omits_digit,
    multiplicative_order_pow2,
    narkiewicz_check,
    sieve_report,
    survivor_chain,
    survivors_N,
)
from ternpow.precision import math_floor_log3, power_le
from ternpow.sieve import REPORT_DEPTH


def _brute_powers(X: int) -> list[int]:
    """Depth-0 oracle: every 2^n checked in full."""
    return [n for n in range(X + 1) if int_omits_digit(1 << n, 2)]


def _fully_digit2free_pow2(n: int, known_free: int) -> bool:
    """Exact check that 2^n omits digit 2, in doubling windows from the bottom."""
    total = math_floor_log3(1 << n) + 1
    window = max(2 * known_free, 16)
    checked = 0
    while checked < total:
        window = min(window, total)
        v = pow(2, n, 3**window)
        v //= 3**checked
        for _ in range(window - checked):
            v, d = divmod(v, 3)
            if d == 2:
                return False
        checked = window
        window *= 2
    return True


def _residue_scan_powers(X: int, depth: int) -> list[int]:
    """Fixed-depth oracle: every exponent in a depth-k survivor class is
    checked in full."""
    modulus = multiplicative_order_pow2(depth)
    ordered = sorted(survivor_chain(depth)[-1])
    out = []
    for base in range(0, X + 1, modulus):
        for r in ordered:
            n = base + r
            if n > X:
                break
            if _fully_digit2free_pow2(n, depth):
                out.append(n)
    return out


def _scan_lambda_survivors(lam: DyadicRational, X: int) -> tuple[int, ...]:
    """Oracle for survivors_N: scan every exponent, filtered by the depth-12
    survivor residues of the odd part of the multiplier."""
    A, s = lam.numerator, lam.exponent
    out = []
    for n in range(1, min(s, X) + 1):
        v = A >> (s - n)
        if v >= 1 and int_omits_digit(v, 2):
            out.append(n)
    e = 0
    A_odd = A
    while A_odd % 2 == 0:
        A_odd //= 2
        e += 1
    survivors = survivor_chain(12, A_odd)[-1]
    modulus = multiplicative_order_pow2(12)
    for n in range(s + 1, X + 1):
        m = n - s + e
        if m % modulus in survivors and int_omits_digit(A_odd << m, 2):
            out.append(n)
    return tuple(out)


def test_multiplicative_order_matches_brute():
    for k in range(1, 8):
        modulus = 3**k
        order = 1
        v = 2 % modulus
        while v != 1:
            v = v * 2 % modulus
            order += 1
        assert multiplicative_order_pow2(k) == order == 2 * 3 ** (k - 1)
    with pytest.raises(ValueError):
        multiplicative_order_pow2(0)


def test_survivor_counts_are_powers_of_two():
    for k in range(1, 13):
        assert len(survivor_chain(k)[-1]) == 2 ** (k - 1)


def test_survivors_match_brute_digits():
    for k in range(1, 8):
        modulus = multiplicative_order_pow2(k)
        brute = frozenset(
            n for n in range(modulus) if int_omits_digit(pow(2, n, 3**k), 2)
        )
        assert survivor_chain(k)[-1] == brute


def test_survivor_chain_refines():
    chain = survivor_chain(9)
    for k in range(1, 9):
        coarse, fine = chain[k - 1], chain[k]
        modulus = multiplicative_order_pow2(k)
        assert {n % modulus for n in fine} <= coarse


@given(st.integers(min_value=2, max_value=200).filter(lambda a: a % 2 == 1))
def test_survivor_chain_other_multipliers(a):
    k = 4
    modulus = multiplicative_order_pow2(k)
    brute = frozenset(
        n
        for n in range(modulus)
        if int_omits_digit(a * pow(2, n, 3**k) % 3**k, 2)
    )
    assert survivor_chain(k, a)[-1] == brute


def test_enumerate_powers_known_survivors():
    assert enumerate_digit2free_powers(4374) == [0, 2, 8]
    assert _brute_powers(2000) == [0, 2, 8]
    with pytest.raises(ValueError):
        enumerate_digit2free_powers(0)


def test_sieve_paths_agree():
    # the survivor tree against the depth-0 brute scan and the fixed-depth
    # residue scans at depths 5 and 12
    for X in (1, 2, 7, 8, 9, 600, 4374, 20_000):
        oracle = _brute_powers(X)
        assert oracle == [n for n in (0, 2, 8) if n <= X]
        assert _residue_scan_powers(X, 5) == oracle
        assert enumerate_digit2free_powers(X) == oracle
    assert enumerate_digit2free_powers(100_000) == _residue_scan_powers(100_000, 12)


def test_tree_reaches_large_bounds():
    # about 0.07 s with the tree; a per-candidate power of 3 would take minutes
    assert enumerate_digit2free_powers(10**6) == [0, 2, 8]


def _per_leaf_tree_survivors(
    A: int, lo: int, hi: int, report_depth: int = 0
) -> tuple[list[int], list[int]]:
    """Oracle for the full walk: nodes carry A * 2^r mod 3^depth only, and
    every leaf pays a fresh exact check from its depth known digits."""
    counts = [0] * report_depth
    if hi < lo:
        return [], counts
    depth = max(1, report_depth)
    while multiplicative_order_pow2(depth) <= hi:
        depth += 1
    mod = 3**depth
    order = [0] + [multiplicative_order_pow2(j) for j in range(1, depth + 1)]
    out = []
    stack = [(r, 1, A * pow(2, r, mod) % mod) for r in (0, 1) if r <= hi]
    while stack:
        r, j, v = stack.pop()
        if v // 3 ** (j - 1) % 3 == 2:
            continue
        if j <= report_depth:
            counts[j - 1] += (hi - r) // order[j] + 1
        if j == depth:
            if r >= lo and ternpow.sieve._omits_two_above(A, r, depth):
                out.append(r)
            continue
        g = pow(2, order[j], mod)
        for n in range(r, min(r + 3 * order[j], hi + 1), order[j]):
            stack.append((n, j + 1, v))
            v = v * g % mod
    out.sort()
    return out, counts


# A whose 60 low digits omit 2: A * 2^0 survives only through the leaf's
# fallback past its first window, and A + 2 * 3^70 fails there
_LONG_FREE = int("1" * 60, 3)
_WALK_CASES = (
    # A = 1 below, at and across the depth-7 modulus 1458, where the
    # first window is 16 digits, more than twice the depth
    [(1, 0, hi, 0) for hi in (0, 1, 2, 7, 8, 9, 100, 1457, 1458, 4374, 20_000)]
    # lo > 0, and report depths before, at and beyond the leaf depth
    + [(1, 3, 20_000, 0), (1, 9, 600, 5), (7, 100, 4374, 9), (5, 1, 4374, 12)]
    + [(1, 0, 1000, 20), (11, 0, 30_000, 12)]
    # factors 3^t, which callers strip and the walk lets through t levels
    + [(3**5 * 7, 0, 5000, 12), (3**9, 0, 3000, 0), (3**3, 1, 40_000, 6)]
    # A with more digits than twice the leaf depth
    + [(_LONG_FREE, 0, 2000, 0), (_LONG_FREE + 2 * 3**70, 0, 2000, 8)]
    + [(3**60 + 1, 0, 3000, 0), (2**200 + 1, 5, 4000, 0)]
)


def test_tree_walk_matches_per_leaf_check_oracle():
    for A, lo, hi, report_depth in _WALK_CASES:
        got = ternpow.sieve._tree_survivors(A, lo, hi, report_depth)
        assert got == _per_leaf_tree_survivors(A, lo, hi, report_depth), (A, lo, hi)
    assert _per_leaf_tree_survivors(_LONG_FREE, 0, 2000)[0][0] == 0
    assert 0 not in _per_leaf_tree_survivors(_LONG_FREE + 2 * 3**70, 0, 2000)[0]
    rng = random.Random(20261019)
    for _ in range(60):
        A = rng.randrange(1, 10**rng.randint(1, 40), 2)
        lo = rng.choice((0, 1, rng.randint(0, 5000)))
        hi = rng.randint(0, 20_000)
        report_depth = rng.choice((0, 1, 6, 12, 14))
        got = ternpow.sieve._tree_survivors(A, lo, hi, report_depth)
        assert got == _per_leaf_tree_survivors(A, lo, hi, report_depth), (A, lo, hi)


def test_leaf_falls_back_only_past_its_first_window(monkeypatch):
    # _omits_two_above runs for exactly the leaves whose first window of
    # max(2 * depth, 16) digits omits 2 and does not yet cover A * 2^r
    calls = []
    original = ternpow.sieve._omits_two_above

    def record(A, m, known):
        calls.append((A, m, known))
        return original(A, m, known)

    monkeypatch.setattr(ternpow.sieve, "_omits_two_above", record)
    for A, lo, hi in ((1, 0, 1000), (1, 0, 20_000), (7, 50, 5000), (_LONG_FREE, 0, 2000)):
        calls.clear()
        depth = 1
        while multiplicative_order_pow2(depth) <= hi:
            depth += 1
        window = max(2 * depth, 16)
        want = []
        for r in range(lo, hi + 1):
            low = A * pow(2, r, 3**window) % 3**window
            if (
                int_omits_digit(low, 2)
                and (3**window).bit_length() <= A.bit_length() + r
            ):
                want.append((A, r, window))
        got = ternpow.sieve._tree_survivors(A, lo, hi)[0]
        assert sorted(calls) == want, (A, lo, hi)
        assert got == _per_leaf_tree_survivors(A, lo, hi)[0]
    # below 1458 the 16-digit window holds every 2^r with r < 25
    calls.clear()
    assert enumerate_digit2free_powers(24) == [0, 2, 8]
    assert calls == []


def test_sieve_report_frozen_run():
    rep = sieve_report(4374)
    assert rep.bound == 4374
    assert rep.survivors == (0, 2, 8)
    assert rep.counts_per_k == (
        2188, 1459, 973, 649, 433, 289, 193, 129, 99, 66, 41, 28,
    )
    assert rep.work_units == 28
    assert rep.narkiewicz_ok


def test_sieve_report_below_report_depth():
    # 400000 > 2*3^11, so the tree descends to depth 13 while the report's
    # counts stay those of the depth-12 residue scan
    rep = sieve_report(400_000)
    assert rep.survivors == (0, 2, 8)
    assert rep.counts_per_k == (
        200001, 133334, 88890, 59261, 39508, 26340,
        17563, 11711, 7813, 5208, 3489, 2331,
    )
    assert rep.work_units == 2331
    assert rep.narkiewicz_ok


def _count_in_range(survivors: frozenset[int], modulus: int, lo: int, hi: int) -> int:
    """Oracle: #{n in [lo, hi] : n mod modulus in survivors}."""
    if hi < lo:
        return 0
    total = 0
    for r in survivors:
        # smallest n >= lo with n === r
        first = lo + (r - lo) % modulus
        if first <= hi:
            total += (hi - first) // modulus + 1
    return total


def _chain_counts(X: int) -> tuple[int, ...]:
    """Oracle for counts_per_k: the depth-k survivor sets of the chain,
    each counted over [0, X]."""
    return tuple(
        _count_in_range(sk, multiplicative_order_pow2(k), 0, X)
        for k, sk in enumerate(survivor_chain(REPORT_DEPTH), start=1)
    )


def test_sieve_report_counts_match_survivor_chain():
    # bounds below, at and across the depth-11, -12 and -13 moduli
    for X in (1, 2, 5, 100, 1000, 4374, 118097, 118098, 200_000, 354294, 10**6):
        rep = sieve_report(X)
        assert rep.counts_per_k == _chain_counts(X), X
        assert rep.work_units == rep.counts_per_k[-1]


def test_survivor_chain_is_rebuilt_equal():
    for a in (1, 5, 45):
        first, second = survivor_chain(12, a), survivor_chain(12, a)
        assert first == second
        assert first is not second
    assert survivor_chain(5) == survivor_chain(9)[:5]


def test_sieve_module_holds_no_dict():
    held = [
        name
        for name, value in vars(ternpow.sieve).items()
        if not name.startswith("__") and isinstance(value, dict)
    ]
    assert held == []


def test_sieve_report_validation():
    with pytest.raises(ValueError):
        SieveReport(
            bound=10,
            survivors=(0, 11),
            counts_per_k=(5,),
            work_units=5,
            narkiewicz_ok=True,
        )
    with pytest.raises(ValueError):
        SieveReport(
            bound=10,
            survivors=(0, 2),
            counts_per_k=(3, 5),
            work_units=5,
            narkiewicz_ok=True,
        )


def test_narkiewicz_check_exact_edges():
    # bound is 1.62 * X^0.63093, compared via integer 100000th powers
    assert narkiewicz_check(1, 1)
    assert not narkiewicz_check(2, 1)
    assert narkiewicz_check(3, 100)
    assert not narkiewicz_check(30, 100)
    with pytest.raises(ValueError):
        narkiewicz_check(1, 0)


def test_padic_approx_residues():
    lam = PadicApprox.from_int(25, 4)
    assert lam.precision == 4
    assert lam.residue() == 25
    assert lam.residue(2) == 25 % 9
    with pytest.raises(InsufficientDigits):
        lam.residue(5)
    with pytest.raises(ValueError):
        lam.residue(-1)
    with pytest.raises(ValueError):
        PadicApprox(0, 0)
    with pytest.raises(ValueError):
        PadicApprox(9, 2)


def test_survivors_match_scan_oracle():
    rng = random.Random(2005)
    lams = [
        DyadicRational.from_pair(rng.randrange(1, 2000, 2), rng.randint(0, 5))
        for _ in range(40)
    ]
    lams += [DyadicRational.parse(t) for t in ("729", "1215/2^5", "2187/2^3")]
    for lam in lams:
        assert survivors_N(lam, 30_000) == _scan_lambda_survivors(lam, 30_000), lam


def test_survivors_for_multiples_of_two_and_three():
    # 3^t * A' * 2^m omits 2 exactly when A' * 2^m does, and an even A
    # (exponent 0) is one more power of 2
    for text, want in (("1", (2, 8)), ("12", (6,)), ("6", (1, 7)), ("729", (2, 8))):
        lam = DyadicRational.parse(text)
        assert survivors_N(lam, 5000) == want == _scan_lambda_survivors(lam, 5000)
    # n <= s reads floor(lam * 2^n) directly; only n > s walks the tree
    lam = DyadicRational.parse("1/2^9")
    assert survivors_N(lam, 8) == ()
    assert survivors_N(lam, 9) == (9,)
    assert survivors_N(lam, 20) == (9, 11, 17) == _scan_lambda_survivors(lam, 20)


def test_count_positive_floor_values_pure_powers():
    lam = DyadicRational.from_pair(1, 0)
    assert survivors_N(lam, 100) == (2, 8)
    assert count_N(lam, 100) == 2
    with pytest.raises(ValueError):
        count_N(lam, 0)


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=260),
)
def test_count_matches_fraction_oracle(num, s, X):
    lam = DyadicRational.from_pair(num, s)
    brute = [
        n
        for n in range(1, X + 1)
        if (v := (lam.value * 2**n).__floor__()) >= 1 and int_omits_digit(v, 2)
    ]
    assert survivors_N(lam, X) == tuple(brute)
    assert count_N(lam, X) == len(brute)


def test_surrogate_count_frozen_values():
    lam = PadicApprox.from_int(1, 24)
    for X, count, k in ((100, 13, 5), (1000, 47, 7), (10_000, 205, 9)):
        tc = count_tilde_N(lam, X)
        assert (tc.count, tc.k, tc.bound) == (count, k, X)
        assert tc.bound_ok


def test_surrogate_is_upper_proxy_for_exact():
    lam_exact = DyadicRational.from_pair(1, 0)
    lam_padic = PadicApprox.from_int(1, 24)
    for X in (50, 100, 500, 1000):
        assert count_tilde_N(lam_padic, X).count >= count_N(lam_exact, X)


@pytest.mark.parametrize("residue", [0, 3**20, 3**5 * 7, 1])
def test_surrogate_count_matches_brute_count(residue):
    # a residue that vanishes mod 3^k keeps all k low digits of every
    # residue * 2^n at zero, so each n is counted
    lam = PadicApprox.from_int(residue, 24)
    for X in (100, 1000):
        tc = count_tilde_N(lam, X)
        mod = 3**tc.k
        brute = sum(
            int_omits_digit(residue * pow(2, n, mod) % mod, 2) for n in range(1, X + 1)
        )
        assert tc.count == brute
        assert tc.bound_ok == (tc.count**100000 <= 2**100000 * X**63093)


def test_surrogate_count_matches_survivor_chain():
    # the earlier count: the depth-k survivor set of the residue, counted
    # over [1, X]; a residue that vanishes mod 3^k counts every n
    rng = random.Random(20240611)
    draws = [(rng.randrange(3**16), rng.randint(1, 30_000)) for _ in range(300)]
    draws += [(0, 1), (0, 30_000), (3**12, 20_000), (2 * 3**9, 5000), (3**5 * 7, 4000)]
    for value, X in draws:
        tc = count_tilde_N(PadicApprox.from_int(value, 16), X)
        residue = value % 3**tc.k
        modulus = multiplicative_order_pow2(tc.k)
        assert modulus // 3 < X <= modulus
        if residue == 0:
            want = X
        else:
            want = _count_in_range(survivor_chain(tc.k, residue)[-1], modulus, 1, X)
        # bound_ok reads only count and X; the brute-count test checks it
        assert tc.count == want, (value, X)


def _leaf_walk_count_tilde_N(lam: PadicApprox, X: int) -> TildeCount:
    """count_tilde_N as it read the level-k counts off the full tree walk,
    which goes down to the leaves and checks each one exactly."""
    x3 = math_floor_log3(X)
    assert lam.precision >= x3 + (0 if 3**x3 == X else 1) + 2
    k = 1
    while multiplicative_order_pow2(k) < X:
        k += 1
    residue = lam.residue(k)
    if residue == 0:
        count = X
    else:
        counts = ternpow.sieve._tree_survivors(residue, 0, X, k)[1]
        count = counts[k - 1] - int_omits_digit(residue, 2)
    bound_ok = power_le(count, 100000, (2, 100000), (X, 63093))
    return TildeCount(count=count, k=k, bound=X, bound_ok=bound_ok)


def test_surrogate_count_matches_leaf_walk():
    # the count-only walk stops at level k; the full walk reads the same
    # level-k counts
    rng = random.Random(20261018)
    draws = [(rng.randrange(3**16), rng.randint(1, 30_000)) for _ in range(200)]
    draws += [(0, 1), (0, 30_000), (3**12, 20_000), (1, 2), (1, 3), (2, 6)]
    for value, X in draws:
        lam = PadicApprox.from_int(value, 16)
        assert count_tilde_N(lam, X) == _leaf_walk_count_tilde_N(lam, X), (value, X)


def test_count_only_walk_checks_no_leaf(monkeypatch):
    # a leaf reads its first window with int_omits_digit and only then may
    # call _omits_two_above; count_tilde_N itself reads the residue once
    def refuse(*args):
        raise AssertionError("leaf checked")

    read = []

    def count_reads(n, digit):
        read.append(n)
        return int_omits_digit(n, digit)

    monkeypatch.setattr(ternpow.sieve, "_omits_two_above", refuse)
    monkeypatch.setattr(ternpow.sieve, "int_omits_digit", count_reads)
    assert count_tilde_N(PadicApprox.from_int(1, 24), 10_000).count == 205
    assert read == [1]


def test_surrogate_requires_enough_digits():
    with pytest.raises(InsufficientDigits):
        count_tilde_N(PadicApprox.from_int(1, 4), 10_000)
    with pytest.raises(ValueError):
        count_tilde_N(PadicApprox.from_int(1, 24), 0)


def test_count_with_fractional_lambda():
    # lambda = 3/4: floor(3 * 2^(n-2)) = 0 for n=0 is excluded by n >= 1
    lam = DyadicRational.from_pair(3, 2)
    got = survivors_N(lam, 50)
    want = tuple(
        n
        for n in range(1, 51)
        if (v := (Fraction(3, 4) * 2**n).__floor__()) >= 1
        and int_omits_digit(v, 2)
    )
    assert got == want
