"""Witness searches, greedy prefixes, block subsets, and the class scan."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

import ternpow.cantor.search as search
from ternpow import (
    MultiplierSet,
    SizeGuardError,
    WitnessResult,
    build_automaton,
    greedy_element,
    int_omits_digit,
    scan_problems,
    smallest_witness,
    trim,
    verify_sigma_subsets,
)
from ternpow.cantor.automaton import pair_carries
from ternpow.cantor.dimension import growth_components, has_growth
from ternpow.cantor.search import (
    DEFAULT_SCAN_LIMIT,
    _bound_denominator,
    _classify_normalized,
    _distances,
    _is_flush_state,
    _steps_back,
)

from conftest import mp_fraction

LOG3_2 = math.log(2) / math.log(3)


def _free_integers(limit):
    t = 1
    out = []
    while True:
        n = int(bin(t)[2:], 3)
        if n > limit:
            return out
        out.append(n)
        t += 1


def _brute_smallest_witness(mults, limit):
    for n in _free_integers(limit):
        if all(int_omits_digit(n * m, 2) for m in mults):
            return n
    return None


def test_trivial_witness():
    w = smallest_witness([1])
    assert w.found and w.n == 1
    assert w.digits == (1,)
    assert w.bound_denominator == 1
    assert abs(w.bound - LOG3_2) < 1e-15


def test_bounds_are_the_nearest_floats():
    # math.log(2) / math.log(3) / d misses the nearest float for 32 of the
    # d <= 199, from d = 7 on; the bound reads a certified enclosure instead
    with mp.workprec(300):
        alpha = mp_fraction(mp.log(2) / mp.log(3))
    for d in range(1, 200):
        w = WitnessResult(
            multipliers=(1,), found=True, n=1, digits=(1,), bound_denominator=d
        )
        assert w.bound == float(alpha / d), d
    rep = verify_sigma_subsets(6)
    assert (rep.bound_a, rep.bound_b) == (float(alpha / 2), float(alpha / 6))


def test_witness_for_seven():
    w = smallest_witness([7])
    assert (w.n, w.digits, w.bound_denominator) == (4, (1, 1), 4)
    assert int_omits_digit(4 * 7, 2)


def test_smallest_witness_matches_brute_force():
    for m in range(2, 61):
        if m % 3 == 0:
            continue
        w = smallest_witness([1, m])
        brute = _brute_smallest_witness((1, m), 3**9)
        if w.found and w.n <= 3**9:
            assert w.n == brute
        else:
            assert brute is None


def test_witness_respects_all_multipliers():
    w = smallest_witness([7, 10])
    assert w.found and w.n == 4
    for m in (1, 7, 10):
        assert int_omits_digit(w.n * m, 2)
    # nothing smaller works
    assert _brute_smallest_witness((1, 7, 10), w.n - 1) is None
    # joint witnesses are not closed under union: {4} and {7} each admit
    # one, together they do not
    assert smallest_witness([4]).found and smallest_witness([7]).found
    assert not smallest_witness([4, 7]).found


def test_no_witness_classes_are_decided():
    # 2 mod 3 multipliers reject every nonzero string; 52 spans a
    # positive-dimension set with no witness at any size
    for mults in ((1, 2), (1, 52), (1, 4, 7)):
        assert not _check_against_bounded_search(mults).found


def _check_against_bounded_search(mults, limit=3**10):
    """smallest_witness agrees with the brute walk over N <= limit: the same
    N when its witness is at most limit, no N below limit otherwise."""
    w = smallest_witness(mults)
    brute = _brute_smallest_witness(mults, limit)
    if w.found and w.n <= limit:
        assert brute == w.n, mults
    else:
        assert brute is None, mults
    return w


def test_bounded_search_known_results():
    assert _brute_smallest_witness((1, 4, 256), 10) == 1
    w = _check_against_bounded_search((1, 4, 256))
    assert w.found and w.n == 1
    assert w.bound_denominator == 6
    assert abs(w.bound - LOG3_2 / 6) < 1e-15

    assert _brute_smallest_witness((1, 7), 100) == 4
    w7 = _check_against_bounded_search((7,))
    assert (w7.n, w7.bound_denominator) == (4, 4)


def test_bounded_search_agrees_with_exact_decision():
    for m in (5, 7, 10, 13, 16, 46):
        _check_against_bounded_search((1, m))


def test_smallest_witness_matches_brute_force_on_larger_sets():
    # half the sets are drawn uniformly and rarely admit a witness; the
    # other half share a planted N <= 3^10, so smallest_witness has an N
    # at most that large to find
    rng = random.Random(21)
    planted = _free_integers(3**10)[1:]
    above_one = missed = 0
    for i in range(80):
        k = rng.choice((3, 4))
        if i % 2:
            mults = rng.sample(range(1, 301), k)
        else:
            good = []
            while len(good) < k:
                n = rng.choice(planted)
                good = [m for m in range(1, 301) if int_omits_digit(n * m, 2)]
            mults = rng.sample(good, k)
        w = _check_against_bounded_search(mults)
        if w.found:
            above_one += w.n > 1
        else:
            missed += 1
    assert above_one >= 10 and missed >= 10, (above_one, missed)


def test_bounded_search_validation():
    # the witness search is bounded by the machine's state guard alone
    with pytest.raises(SizeGuardError):
        smallest_witness([1, 7], state_limit=3)
    assert smallest_witness([1, 7], state_limit=4).n == 4
    for bad in ([], [0, 7], [1, -2]):
        with pytest.raises(ValueError):
            smallest_witness(bad)


@given(st.integers(min_value=0, max_value=300))
def test_free_integer_enumeration_is_ascending_and_complete(limit):
    got = _free_integers(limit)
    want = [n for n in range(1, limit + 1) if int_omits_digit(n, 2)]
    assert got == want


def test_greedy_element_known_prefixes():
    g = greedy_element(1, 10)
    assert g.digits == (1,) + (0,) * 9
    assert g.value == 1

    g7 = greedy_element(7, 16)
    assert g7.digits[0] == 1
    assert len(g7.digits) == 16
    prod = 7 * g7.value
    for _ in range(16):
        assert prod % 3 != 2
        prod //= 3


def test_greedy_element_validation():
    with pytest.raises(ValueError):
        greedy_element(5, 8)  # 5 = 2 mod 3 has no admissible strings
    with pytest.raises(ValueError):
        greedy_element(7, 0)


def _backtracking_greedy(a, r):
    """Oracle: the earlier depth-first search preferring digit 0, with a
    memo of (state, remaining) dead ends.  Returns (digits, value,
    backtracks) on the single-multiplier machine a."""
    first = a.transitions[0][1]
    digits = [1]
    failed = set()
    backtracks = 0

    def extend(state, remaining):
        nonlocal backtracks
        if remaining == 0:
            return True
        if (state, remaining) in failed:
            return False
        for d in (0, 1):
            t = a.transitions[state][d]
            if t is None:
                continue
            digits.append(d)
            if extend(t, remaining - 1):
                return True
            digits.pop()
            backtracks += 1
        failed.add((state, remaining))
        return False

    assert extend(first, r - 1)
    return tuple(digits), sum(d * 3**j for j, d in enumerate(digits)), backtracks


def test_pure_greedy_never_stalls_for_single_multipliers():
    # single multipliers coprime to 3 keep an exit from every state, so the
    # backtracking search never backtracks and the greedy walk matches it
    for m in range(4, 200, 3):
        digits, value, backtracks = _backtracking_greedy(build_automaton([m]), 64)
        assert backtracks == 0
        g = greedy_element(m, 64)
        assert (g.digits, g.value) == (digits, value)


def test_greedy_walk_matches_backtracking_search():
    for m in range(1, 3000, 3):
        a = build_automaton([m])
        for r in (1, 2, 17, 64):
            g = greedy_element(m, r)
            assert (g.digits, g.value) == _backtracking_greedy(a, r)[:2], (m, r)


def test_greedy_walk_needs_no_machine():
    # the {1, 3^20 + 1} machine outgrows the default state guard, but a
    # 64-digit walk steps only 64 carries
    m = 3**20 + 1
    with pytest.raises(SizeGuardError):
        build_automaton([1, m])
    g = greedy_element(m, 64)
    assert g.digits[0] == 1 and len(g.digits) == 64
    assert g.value == sum(d * 3**j for j, d in enumerate(g.digits))
    prod = m * g.value
    for _ in range(64):
        assert prod % 3 != 2
        prod //= 3
    # each later 1 is forced: a 0 there would emit the digit 2
    c = m // 3
    for d in g.digits[1:]:
        assert (c % 3 == 2) == (d == 1)
        c = (c + d * m) // 3


def test_sigma_subsets_frozen_counts():
    rep = verify_sigma_subsets(6)
    assert rep.sigma_a_count == 8
    assert rep.sigma_b_count == 2
    assert rep.sigma_a_all_accepted and rep.sigma_b_all_accepted
    assert abs(rep.bound_a - LOG3_2 / 2) < 1e-15
    assert abs(rep.bound_b - LOG3_2 / 6) < 1e-15

    rep36 = verify_sigma_subsets(36)
    assert rep36.sigma_a_count == 2**18
    assert rep36.sigma_b_count == 2**6
    assert rep36.sigma_a_all_accepted and rep36.sigma_b_all_accepted


def test_sigma_subsets_brute_check():
    # independently re-walk every sigma_a string of length 6 through the
    # integer oracle: value = sum eps_i 9^i with eps in {0,1}
    for bits in range(8):
        n = sum(((bits >> i) & 1) * 9**i for i in range(3))
        for m in (1, 4):
            prod = n * m
            for _ in range(6):
                assert prod % 3 != 2
                prod //= 3


def test_sigma_subsets_validation():
    for bad in (5, 42, 0, 7):
        with pytest.raises(ValueError):
            verify_sigma_subsets(bad)


def test_scan_frozen_counts():
    scan = scan_problems(120)
    assert scan.mc_count == 56
    assert scan.mh_count == 60
    assert scan.strict == (16, 46, 48, 52)


def test_scan_row_details():
    scan = scan_problems(60)
    rows = {r.m: r for r in scan.rows}
    assert rows[1].in_mc and rows[1].witness == 1
    assert rows[3].normalized_m == 1 and rows[3].witness == 1
    assert rows[7].witness == 4
    assert not rows[2].in_mc and not rows[2].in_mh
    assert rows[16].in_mh and not rows[16].in_mc
    assert rows[46].in_mh and not rows[46].in_mc
    # every witness the scan reports actually certifies membership
    for r in scan.rows:
        if r.witness is not None:
            assert int_omits_digit(r.witness, 2)
            assert int_omits_digit(r.witness * r.normalized_m, 2)


def test_scan_class_containment():
    # a witness forces positive dimension: M_C is inside M_H
    scan = scan_problems(120)
    for row in scan.rows:
        if row.in_mc:
            assert row.in_mh


def _literal_ceil_log3(x):
    t, p = 0, 1
    while p < x:
        p *= 3
        t += 1
    return t


def test_bound_denominator_matches_power_loop():
    t, p = 0, 1
    for x in range(1, 10**5 + 1):
        while p < x:
            p *= 3
            t += 1
        assert _bound_denominator(x, 1) == max(1, t), x
    for e in (11, 20, 63):
        # exact powers of 3 and their neighbours
        assert _bound_denominator(3**e, 1) == e
        assert _bound_denominator(3**e + 1, 1) == e + 1
        assert _bound_denominator(3**e - 1, 1) == e


@given(
    st.integers(min_value=1, max_value=10**30),
    st.integers(min_value=1, max_value=10**4),
)
def test_bound_denominator_large_products(n, m):
    assert _bound_denominator(n, m) == max(1, _literal_ceil_log3(n * m))


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_problems(0)
    with pytest.raises(ValueError):
        scan_problems(DEFAULT_SCAN_LIMIT + 1)


def _parent_smallest_witness(ms):
    """Witness search that tests every state for flushness up front and
    reconstructs through full preimages over all states."""
    a = build_automaton(ms)
    flush = {i for i, c in enumerate(a.states) if _is_flush_state(c)}

    def preimage(digit, targets):
        return {u for u in range(a.num_states) if a.transitions[u][digit] in targets}

    layers, seen = [{0}], {0}
    while True:
        current = layers[-1]
        if any(a.transitions[u][1] in flush for u in current):
            best_len = len(layers)
            break
        nxt = set()
        for u in current:
            for t in a.transitions[u]:
                if t is not None and t not in seen:
                    seen.add(t)
                    nxt.add(t)
        if not nxt:
            return WitnessResult(a.multipliers, False, None, None, None)
        layers.append(nxt)
    exact = [{0}]
    for _ in range(best_len - 1):
        exact.append({t for u in exact[-1] for t in a.transitions[u] if t is not None})
    digits = [0] * best_len
    digits[-1] = 1
    allowed = preimage(1, flush)
    for j in range(best_len - 2, -1, -1):
        zero_side = preimage(0, allowed)
        if exact[j] & zero_side:
            allowed = zero_side
        else:
            digits[j] = 1
            allowed = preimage(1, allowed)
    n = sum(d * 3**j for j, d in enumerate(digits))
    return WitnessResult(
        a.multipliers, True, n, tuple(digits), _bound_denominator(n, a.multipliers[-1])
    )


def _parent_classify_normalized(m):
    """Positive dimension from the rows of the trimmed machine's components."""
    a = build_automaton(MultiplierSet.of([1, m]))
    wit = _parent_smallest_witness(a.multipliers)
    return wit.found, bool(growth_components(trim(a))), wit.n


def test_classification_matches_trimmed_oracle_for_every_normal():
    # every 3-free M <= 3000: in_mh from the untrimmed machine, and the lazy
    # witness, agree with the trimmed rows and the full preimage search
    for m in range(1, 3001):
        if m % 3:
            assert _classify_normalized(m) == _parent_classify_normalized(m), m


def test_classification_matches_trimmed_oracle_past_the_scan_bound(monkeypatch):
    # 200 seeded 3-free M in (3000, 10^5], both residues; only the
    # M = 1 (mod 3) whose carry 1 is unreachable read growth from the
    # built machine
    fallbacks = []

    def counting_has_growth(a):
        fallbacks.append(a.multipliers[1])
        assert (0, 1) not in a.states
        return has_growth(a)

    monkeypatch.setattr(search, "has_growth", counting_has_growth)
    rng = random.Random(16)
    sample = rng.sample([m for m in range(3001, 10**5 + 1) if m % 3], 200)
    assert {m % 3 for m in sample} == {1, 2}
    for m in sample:
        assert _classify_normalized(m) == _parent_classify_normalized(m), m
    assert fallbacks and all(m % 3 == 1 for m in fallbacks)


def _exact_step_layers(a, steps):
    """The states reachable in exactly j steps, for j = 0..steps."""
    layers = [{0}]
    for _ in range(steps):
        layers.append({t for u in layers[-1] for t in a.transitions[u] if t is not None})
    return layers


def _assert_layers_are_distance_balls(a, dist):
    reached = [d for d in dist if d >= 0]
    assert len(reached) == a.num_states
    steps = max(reached) + 2
    for j, layer in enumerate(_exact_step_layers(a, steps)):
        assert layer == {u for u in range(a.num_states) if 0 <= dist[u] <= j}, j


@given(st.integers(min_value=1, max_value=10**4).filter(lambda m: m % 3))
def test_pair_carry_distances_are_the_exact_step_layers(m):
    # the carry search reaches the built machine's states in its order, and
    # the states reachable in exactly j steps are those with dist <= j; a
    # state's last carry is that of m (of the implicit 1 when m = 1)
    a = build_automaton([1, m])
    by_carry, order = pair_carries(m, 10**6)
    assert order == [s[-1] for s in a.states]
    dist = [by_carry[s[-1]] for s in a.states]
    assert dist == _distances(a.transitions)[0]
    _assert_layers_are_distance_balls(a, dist)


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=3, max_size=3))
def test_distances_are_the_exact_step_layers_for_triples(ms):
    a = build_automaton(ms)
    trans = a.transitions
    dist, order = _distances(trans)
    assert sorted(order) == list(range(a.num_states))
    # the back-steps below every witness length, up to all of them
    for length in range(1, max(dist) + 3):
        back = _steps_back(trans, order, dist, length)
        for t in range(a.num_states):
            for d in (0, 1):
                want = [
                    u for u in range(a.num_states) if trans[u][d] == t and dist[u] < length - 1
                ]
                assert sorted(back(t, d)) == want, (length, t, d)
    assert [dist[u] for u in order] == sorted(dist)
    _assert_layers_are_distance_balls(a, dist)


def test_classification_guard_trips_with_the_machine_build():
    for m in (7, 970, 2188):
        states = build_automaton([1, m]).num_states
        full = _classify_normalized(m)
        for k in range(1, states + 2):
            if k < states:
                with pytest.raises(SizeGuardError):
                    build_automaton([1, m], state_limit=k)
                with pytest.raises(SizeGuardError):
                    _classify_normalized(m, state_limit=k)
            else:
                assert _classify_normalized(m, state_limit=k) == full


def test_scan_matches_trimmed_oracle(monkeypatch):
    fast = scan_problems(3000)
    monkeypatch.setattr(
        search, "_classify_normalized", lambda m, state_limit: _parent_classify_normalized(m)
    )
    assert fast == scan_problems(3000)


def test_lazy_witness_matches_full_preimage_oracle():
    # multipliers = 1 (mod 3) keep digit 1 alive at the start, so some
    # triples admit a witness (four of these thirty do)
    rng = random.Random(17)
    triples = [[3 * rng.randrange(1, 12) + 1 for _ in range(3)] for _ in range(30)]
    for ms in [[7, 10], [4, 7], [1, 4, 256], [1, 7, 49]] + triples:
        assert smallest_witness(ms) == _parent_smallest_witness(ms), ms
    assert any(_parent_smallest_witness(ms).found for ms in triples)
    assert not all(_parent_smallest_witness(ms).found for ms in triples)


def test_witness_is_the_same_on_the_trimmed_machine():
    # a flush state runs out on zeros to the looping start state, so the
    # witness walk stays among the states trimming keeps
    rng = random.Random(22)
    sets = [
        [1] + [rng.randrange(2, 400) for _ in range(rng.choice((1, 1, 2)))]
        for _ in range(150)
    ]
    found = 0
    for ms in sets:
        a = build_automaton(ms)
        w = smallest_witness(a)
        assert smallest_witness(trim(a)) == w, ms
        found += w.found
    assert 0 < found < len(sets)


def test_scan_honours_state_limit():
    # {1, 7} already needs 4 states
    with pytest.raises(SizeGuardError):
        scan_problems(10, state_limit=3)
    assert scan_problems(10, state_limit=10**6) == scan_problems(10)
