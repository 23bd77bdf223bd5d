"""Carry machines: construction, trimming, walking, and prefix counting."""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternpow import (
    CarryAutomaton,
    MultiplierSet,
    SizeGuardError,
    build_automaton,
    count_prefixes,
    trim,
)
from ternpow.cantor.automaton import prefix_counts


def _products_stay_free(mults, digits):
    """Oracle: every multiplier's product has 2-free low len(digits) digits."""
    n = sum(d * 3**j for j, d in enumerate(digits))
    for m in mults:
        prod = m * n
        for _ in range(len(digits)):
            if prod % 3 == 2:
                return False
            prod //= 3
    return True


def _brute_count(mults, r):
    total = 0
    for bits in range(1 << r):
        digits = [(bits >> j) & 1 for j in range(r)]
        if _products_stay_free(mults, digits):
            total += 1
    return total


def test_multiplier_set_parsing_and_normalization():
    ms = MultiplierSet.parse("7, 1,21")
    assert ms.multipliers == (1, 7, 21)
    norm = ms.normalized()
    assert norm.multipliers == (1, 7)
    assert norm == norm.normalized()
    assert str(norm) == "1,7"
    assert MultiplierSet.of([9]).normalized().multipliers == (1,)
    three = MultiplierSet.of([3])
    assert three != three.normalized()


def test_multiplier_set_validation():
    with pytest.raises(ValueError):
        MultiplierSet(())
    with pytest.raises(ValueError):
        MultiplierSet((0, 2))
    with pytest.raises(ValueError):
        MultiplierSet((2, 2))
    with pytest.raises(ValueError):
        MultiplierSet.parse(" , ")


def test_trivial_machine_accepts_everything():
    a = build_automaton([1])
    assert a.num_states == 1
    assert a.transitions == ((0, 0),)
    assert count_prefixes(a, 5) == 32


def test_residue_two_machine_collapses():
    a = build_automaton([1, 2])
    assert a.num_states == 1
    assert a.transitions == ((0, None),)
    assert count_prefixes(a, 5) == 1  # only the all-zero string


def test_known_machine_sizes():
    assert build_automaton([1, 7]).num_states == 4
    # powers of 3 in the multiplier shift digits only: same machine
    assert build_automaton([1, 21]).states == build_automaton([1, 7]).states


def test_state_limit_guard():
    with pytest.raises(SizeGuardError):
        build_automaton([1, 7], state_limit=2)


def test_state_limit_guard_is_independent_of_the_multiplier_size():
    # the {1, M} search keys its carries by value, so it holds at most
    # state_limit of them, never M // 2 slots
    start = time.perf_counter()
    with pytest.raises(SizeGuardError):
        build_automaton([1, 3**40 + 1], state_limit=1000)
    assert time.perf_counter() - start < 1.0


def _parent_build_automaton(ms, state_limit):
    """The breadth-first builder that steps every carry, the multiplier 1's
    included, through a helper call per digit."""

    def step(mults, carries, digit):
        out = []
        for m, c in zip(mults, carries):
            t = m * digit + c
            if t % 3 == 2:
                return None
            out.append(t // 3)
        return tuple(out)

    ms = MultiplierSet.of(ms).normalized()
    mults = ms.multipliers
    start = tuple(0 for _ in mults)
    index = {start: 0}
    states = [start]
    transitions = []
    frontier = [start]
    while frontier:
        next_frontier = []
        for carries in frontier:
            pair = [None, None]
            for d in (0, 1):
                nxt = step(mults, carries, d)
                if nxt is None:
                    continue
                if nxt not in index:
                    if len(states) >= state_limit:
                        raise SizeGuardError(f"exceeds {state_limit} states")
                    index[nxt] = len(states)
                    states.append(nxt)
                    next_frontier.append(nxt)
                pair[d] = index[nxt]
            transitions.append((pair[0], pair[1]))
        frontier = next_frontier
    return CarryAutomaton(
        multipliers=mults,
        states=tuple(states),
        transitions=tuple(transitions),
        trimmed=False,
    )


def _oracle_sets():
    # multipliers = 1 (mod 3) keep digit 1 alive, so the machines grow
    rng = random.Random(10)
    triples = [[3 * rng.randrange(1, 700) + 1 for _ in range(3)] for _ in range(30)]
    # {1, 2^k} for even k reaches machines far larger than M <= 3000 gives
    powers = [[1, 2**k] for k in range(2, 17, 2)]
    return (
        [[1, m] for m in range(1, 3001)]
        + [[1, 4, 256], [1, 7, 49], [2, 5, 7], [1, 9997]]
        + powers
        + triples
    )


def test_builder_matches_parent_builder():
    for mults in _oracle_sets():
        # equal fields give equal export-automaton bytes
        assert build_automaton(mults) == _parent_build_automaton(mults, 10**6), mults


def test_state_limit_guard_trips_at_the_parent_count():
    for mults in ([1, 7], [1, 4, 256], [1, 9997], [1, 493, 511], [1, 2**12]):
        n = build_automaton(mults).num_states
        assert build_automaton(mults, state_limit=n).num_states == n
        for limit in (1, n // 2, n - 1):
            with pytest.raises(SizeGuardError):
                build_automaton(mults, state_limit=limit)
            with pytest.raises(SizeGuardError):
                _parent_build_automaton(mults, limit)


def test_carries_stay_below_multiplier():
    a = build_automaton([1, 7, 13])
    for carries in a.states:
        assert all(c < m for c, m in zip(carries, a.multipliers))
    assert a.states[0] == (0, 0, 0)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=12))
def test_walk_agrees_with_integer_oracle(digits):
    for mults in ([7], [5, 7], [47]):
        a = build_automaton(mults)
        accepted = a.walk(digits) is not None
        assert accepted == _products_stay_free(a.multipliers, digits)


@given(
    st.sets(st.integers(min_value=2, max_value=60), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=10),
)
def test_count_prefixes_matches_brute(mults, r):
    a = build_automaton(sorted(mults))
    assert count_prefixes(a, r) == _brute_count(a.multipliers, r)


def test_count_prefixes_validation():
    with pytest.raises(ValueError):
        count_prefixes([1, 7], -1)
    assert count_prefixes([1, 7], 0) == 1


def test_prefix_counts_one_pass_matches_per_length_counts():
    for mults in ([1], [1, 2], [1, 7], [1, 52], [1, 4, 256], [1, 997]):
        a = build_automaton(mults)
        trimmed = trim(a)
        for machine in (a, trimmed):
            for depth in (0, 1, 2, 9, 25):
                want = tuple(count_prefixes(machine, r) for r in range(1, depth + 1))
                assert prefix_counts(machine, depth) == want
        brute = tuple(_brute_count(a.multipliers, r) for r in range(1, 9))
        assert prefix_counts(mults, 8) == brute
    assert prefix_counts([1, 7], 0) == ()
    with pytest.raises(ValueError):
        prefix_counts([1, 7], -1)


def test_count_prefixes_submultiplicative():
    for mults in ([1, 7], [1, 5], [1, 11], [1, 4, 256]):
        counts = [count_prefixes(mults, r) for r in range(16)]
        for i in range(1, 15):
            for j in range(1, 16 - i):
                assert counts[i + j] <= counts[i] * counts[j]


def test_fibonacci_growth_for_golden_machine():
    counts = [count_prefixes([1, 7], r) for r in range(1, 13)]
    assert counts == [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]


def test_trim_keeps_only_extendable_states():
    a = build_automaton([1, 5])
    t = trim(a)
    assert t.trimmed
    assert t.num_states <= a.num_states
    assert all(pair != (None, None) for pair in t.transitions)
    assert t.states[0] == a.states[0]
    # trimming the residue-2 machine keeps the start state's zero loop
    t2 = trim(build_automaton([1, 2]))
    assert t2.num_states == 1 and t2.transitions == ((0, None),)


def test_trim_preserves_long_prefix_counts():
    # counting on the trimmed machine undercounts only by prefixes that die;
    # extendable prefixes are identical
    a = build_automaton([1, 5])
    t = trim(a)
    for r in range(1, 10):
        dead_end_free = count_prefixes(t, r)
        assert dead_end_free <= count_prefixes(a, r)
        # every counted string on the trimmed machine extends by one digit
        assert count_prefixes(t, r + 1) >= dead_end_free


def test_walk_rejects_on_first_bad_digit():
    a = build_automaton([1, 2])
    assert a.walk([0, 0, 0]) == 0
    assert a.walk([1]) is None
    assert a.transitions[0][1] is None


def test_json_export_roundtrips():
    a = build_automaton([1, 7])
    payload = json.loads(a.to_json())
    assert payload["multipliers"] == [1, 7]
    assert payload["start"] == 0
    assert len(payload["states"]) == a.num_states
    edges = {(e["from"], e["digit"]): e["to"] for e in payload["transitions"]}
    for i, (t0, t1) in enumerate(a.transitions):
        assert edges.get((i, 0)) == t0 or (t0 is None and (i, 0) not in edges)
        assert edges.get((i, 1)) == t1 or (t1 is None and (i, 1) not in edges)


def test_dot_export_shape():
    dot = build_automaton([1, 7]).to_dot()
    assert dot.startswith("digraph")
    assert "rankdir=LR" in dot
    assert "s0" in dot and "doublecircle" in dot


def test_automaton_instance_accepted_everywhere():
    a = build_automaton([1, 7])
    assert isinstance(a, CarryAutomaton)
    assert count_prefixes(a, 6) == count_prefixes([1, 7], 6)
