"""Spectral dimension enclosures for carry-machine languages."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy

from ternpow import (
    SizeGuardError,
    build_automaton,
    exact_charpoly,
    hausdorff_dimension,
    trim,
)
from ternpow.cantor.dimension import (
    MAX_ITERATIONS,
    TARGET_WIDTH,
    _cw_bounds,
    growth_components,
    strongly_connected_components,
)

LOG3_2 = math.log(2) / math.log(3)
GOLD = math.log((1 + math.sqrt(5)) / 2) / math.log(3)


def test_unconstrained_machine_has_full_dimension():
    est = hausdorff_dimension([1])
    assert est.exact
    assert est.rho_lo == est.rho_hi == 2
    assert abs(est.value - LOG3_2) < 1e-15
    # log3(2) sits between the convergents 41/65 and 53/84; so must the
    # certified enclosure
    assert Fraction(41, 65) < est.lo <= est.hi < Fraction(53, 84)


def test_residue_two_machine_has_dimension_zero():
    est = hausdorff_dimension([1, 2])
    assert est.is_zero
    assert est.lo == est.hi == 0
    assert est.prefix_counts[:5] == (1, 1, 1, 1, 1)


def test_power_of_seven_squared_machine_is_zero():
    est = hausdorff_dimension([1, 49])
    assert est.is_zero and est.exact


def test_golden_ratio_machine():
    est = hausdorff_dimension([1, 7])
    assert est.states_total == est.states_trimmed == 4
    assert est.hi - est.lo < Fraction(1, 10**9)
    assert abs(est.value - GOLD) < 1e-9
    # the enclosure brackets the positive root of x^2 - x - 1 exactly
    assert est.rho_lo**2 - est.rho_lo - 1 <= 0 <= est.rho_hi**2 - est.rho_hi - 1
    assert est.converged and not est.exact
    # counts grow like C * phi^r with C = phi^2/sqrt(5), so the finite-depth
    # slope sits log3(C)/60 ~ 0.0024 above the dimension
    assert 0 < est.slope_gap < 5e-3


def test_golden_ratio_shift_in_disguise():
    # the {1,4} machine is the golden-mean shift: same spectral radius
    est4 = hausdorff_dimension([1, 4])
    assert abs(est4.value - GOLD) < 1e-9
    assert est4.rho_lo**2 - est4.rho_lo - 1 <= 0 <= est4.rho_hi**2 - est4.rho_hi - 1


def test_dimension_invariant_under_power_of_three_scaling():
    base = hausdorff_dimension([1, 7])
    for j in (1, 2, 3):
        assert hausdorff_dimension([1, 7 * 3**j]) == base


def test_known_positive_dimension_without_witness():
    est = hausdorff_dimension([1, 52])
    assert est.positive
    assert 0.1815568 < est.value < 0.1815569


def test_charpoly_golden_machine():
    x = sympy.Symbol("x")
    cp = exact_charpoly([1, 7])
    assert cp.as_expr() == x**4 - 2 * x**3 + x**2 - 1
    quotient, rem = sympy.div(cp.as_expr(), x**2 - x - 1, x)
    assert rem == 0
    assert quotient == x**2 - x + 1


def test_charpoly_size_guard():
    with pytest.raises(SizeGuardError):
        exact_charpoly([1, 997])


def test_charpoly_root_inside_enclosure():
    # the dominant root of the characteristic polynomial lies in [rho_lo,
    # rho_hi]; sympy isolates the real roots exactly
    for mults in ([1, 7], [1, 52], [1, 11]):
        est = hausdorff_dimension(mults)
        cp = exact_charpoly(mults)
        top = max(sympy.real_roots(cp.as_expr()))
        assert sympy.Rational(est.rho_lo) <= top <= sympy.Rational(est.rho_hi)


def test_dimension_bounds_are_universal():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randrange(2, 3000)
        if m % 3 == 0:
            continue
        est = hausdorff_dimension([1, m], prefix_depth=1)
        assert Fraction(0) <= est.lo
        assert float(est.hi) <= LOG3_2 + 1e-12
        assert est.exact or est.converged


def test_only_trivial_set_reaches_log3_2():
    # dim = log3(2) forces the unconstrained machine
    est9 = hausdorff_dimension([1, 9, 27])  # normalizes to {1}
    assert est9.rho_lo == est9.rho_hi == 2
    for m in (2, 4, 5, 7, 10):
        est = hausdorff_dimension([1, m])
        assert float(est.hi) < LOG3_2 - 1e-3


def test_five_hundred_random_multipliers_stay_below_half():
    rng = random.Random(7)
    limit = Fraction(1, 2) + Fraction(1, 10**9)
    sampled = 0
    while sampled < 500:
        m = rng.randrange(2, 10**4 + 1)
        if m % 3 == 0:
            continue
        est = hausdorff_dimension([1, m], prefix_depth=1)
        assert est.hi <= limit, f"M={m} exceeds 1/2"
        assert est.exact or est.converged
        sampled += 1


def test_prefix_counts_slope_approaches_dimension():
    est = hausdorff_dimension([1, 7], prefix_depth=60)
    assert len(est.prefix_counts) == 60
    slope = math.log(est.prefix_counts[-1], 3) / 60
    assert abs(slope - est.value) < 5e-3


def test_scc_decomposition_basics():
    a = trim(build_automaton([1, 7]))
    comps = strongly_connected_components(a.transitions)
    assert sorted(v for comp in comps for v in comp) == list(range(a.num_states))
    seen = set()
    for comp in comps:
        assert not (set(comp) & seen)
        seen |= set(comp)


def test_dimension_accepts_prebuilt_automaton():
    a = build_automaton([1, 7])
    assert hausdorff_dimension(a) == hausdorff_dimension([1, 7])


def test_prefix_depth_below_one_is_rejected():
    for depth in (0, -1):
        with pytest.raises(ValueError):
            hausdorff_dimension([1, 7], prefix_depth=depth)


# --- the pre-merge spectral routine, kept as the oracle of the merged one ---


def _component_rows(a, nodes):
    pos = {v: i for i, v in enumerate(nodes)}
    rows = [[] for _ in nodes]
    for v in nodes:
        for t in a.transitions[v]:
            if t is not None and t in pos:
                rows[pos[v]].append(pos[t])
    return rows


def _old_rows(a):
    return [_component_rows(a, c) for c in strongly_connected_components(a.transitions)]


def _has_cycle(rows):
    return len(rows) > 1 or 0 in rows[0]


def _is_bare_cycle(rows):
    return all(len(row) == 1 for row in rows)


def _restarted_cw_bounds(rows, iterations):
    """Power iteration from all ones, renormalized, read after `iterations`."""
    n = len(rows)

    def apply(x):
        return [x[i] + sum(x[j] for j in rows[i]) for i in range(n)]

    x = [1] * n
    for _ in range(iterations):
        y = apply(x)
        shift = max(v.bit_length() for v in y) - 64
        if shift > 0:
            y = [max(1, v >> shift) for v in y]
        x = y
    y = apply(x)
    ratios = [Fraction(y[i], x[i]) for i in range(n)]
    return min(ratios) - 1, max(ratios) - 1


def _restarted_enclosure(rows):
    """Restart from all ones at every doubled iteration count, 64..4096."""
    iterations = 64
    lo, hi = _restarted_cw_bounds(rows, iterations)
    while hi - lo > TARGET_WIDTH and iterations < MAX_ITERATIONS:
        iterations *= 2
        lo, hi = _restarted_cw_bounds(rows, iterations)
    return lo, hi, hi - lo <= TARGET_WIDTH


def _old_estimate(mults):
    """(rho_lo, rho_hi, exact, converged) by the three structural branches."""
    t = trim(build_automaton(mults))
    if all(s is not None for pair in t.transitions for s in pair):
        return Fraction(2), Fraction(2), True, True
    cyclic = [rows for rows in _old_rows(t) if _has_cycle(rows)]
    if all(_is_bare_cycle(rows) for rows in cyclic):
        return Fraction(1), Fraction(1), True, True
    rho_lo = rho_hi = Fraction(1)
    converged = True
    for rows in cyclic:
        if _is_bare_cycle(rows):
            continue
        lo, hi, ok = _restarted_enclosure(rows)
        rho_lo, rho_hi = max(rho_lo, lo), max(rho_hi, hi)
        converged = converged and ok
    return rho_lo, rho_hi, False, converged


def test_single_pass_certificate_matches_restarted_loop():
    rng = random.Random(2024)
    sample = [[1], [1, 2], [1, 7], [1, 4], [1, 52], [1, 4, 256], [1, 49]]
    while len(sample) < 27:
        m = rng.randrange(2, 10**4 + 1)
        if m % 3:
            sample.append([1, m])
    for mults in sample:
        est = hausdorff_dimension(mults, prefix_depth=1)
        got = (est.rho_lo, est.rho_hi, est.exact, est.converged)
        assert got == _old_estimate(mults), mults
        for rows in growth_components(trim(build_automaton(mults))):
            assert _cw_bounds(rows) == _restarted_enclosure(rows), mults


def test_growth_components_match_structural_predicate():
    for m in range(1, 3001):
        if m % 3 == 0:
            continue
        t = trim(build_automaton([1, m]))
        old = any(_has_cycle(r) and not _is_bare_cycle(r) for r in _old_rows(t))
        assert bool(growth_components(t)) == old, m
