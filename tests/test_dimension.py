"""Spectral dimension enclosures for carry-machine languages."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy

import ternpow.cantor.dimension as dimension
from ternpow import (
    SizeGuardError,
    build_automaton,
    exact_charpoly,
    hausdorff_dimension,
    trim,
)
from ternpow.acceptance import _phi_is_root
from ternpow.cantor.automaton import prefix_counts
from ternpow.cantor.dimension import (
    _CHARPOLY_STATE_LIMIT,
    FIRST_READING,
    MAX_ITERATIONS,
    TARGET_WIDTH,
    _cw_bounds,
    _float_seed,
    _period,
    growth_components,
    strongly_connected_components,
)
from ternpow.cli import _format_poly

LOG3_2 = math.log(2) / math.log(3)
GOLD = math.log((1 + math.sqrt(5)) / 2) / math.log(3)
X = sympy.Symbol("x")
PHI_POLY = sympy.Poly(X**2 - X - 1, X)


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


def _sympy_charpoly(trimmed):
    """sympy's characteristic polynomial of the trimmed adjacency matrix."""
    n = trimmed.num_states
    adjacency = [[0] * n for _ in range(n)]
    for v, pair in enumerate(trimmed.transitions):
        for t in pair:
            if t is not None:
                adjacency[v][t] += 1
    return sympy.Matrix(adjacency).charpoly(X)


def _check_charpoly_against_sympy(trimmed):
    poly = _sympy_charpoly(trimmed)
    coeffs = exact_charpoly(trimmed)
    assert coeffs == tuple(poly.all_coeffs()), trimmed.multipliers
    assert _format_poly(coeffs) == str(poly.as_expr()), trimmed.multipliers
    _, rem = poly.div(PHI_POLY)
    assert _phi_is_root(coeffs) == rem.is_zero, trimmed.multipliers


def test_charpoly_matches_sympy_oracle():
    # every {1, M} with M <= 1000 and at most 64 trimmed states, and a few
    # multi-multiplier sets: integer coefficients, the printed string and
    # the Z[phi] divisibility verdict all agree with sympy
    sets = [[1, m] for m in range(1, 1001)] + [[1], [1, 2], [1, 4, 256], [1, 10, 28]]
    machines = [trim(build_automaton(ms)) for ms in sets]
    small = [t for t in machines if t.num_states <= 64]
    assert len(small) == 929 + 4
    for trimmed in small:
        _check_charpoly_against_sympy(trimmed)


def test_charpoly_matches_sympy_oracle_up_to_guard():
    # machines of 65 to _CHARPOLY_STATE_LIMIT trimmed states, the last at
    # the guard itself
    sizes = {769: 72, 997: 80, 1459: 128, 4998: 104, 4990: 211, 4375: 256}
    for m, n in sizes.items():
        trimmed = trim(build_automaton([1, m]))
        assert trimmed.num_states == n
        _check_charpoly_against_sympy(trimmed)
    assert max(sizes.values()) == _CHARPOLY_STATE_LIMIT


def test_charpoly_golden_machine():
    cp = exact_charpoly([1, 7])
    assert cp == (1, -2, 1, 0, -1)
    assert _phi_is_root(cp)
    quotient, rem = sympy.Poly(cp, X).div(PHI_POLY)
    assert rem.is_zero
    assert quotient == sympy.Poly(X**2 - X + 1, X)


def test_charpoly_size_guard():
    # {1, 14581} trims to 442 states
    with pytest.raises(SizeGuardError):
        exact_charpoly([1, 14581])


def test_charpoly_root_inside_enclosure():
    # the dominant root of the characteristic polynomial lies in [rho_lo,
    # rho_hi]; sympy isolates the real roots exactly
    for mults in ([1, 7], [1, 52], [1, 11]):
        est = hausdorff_dimension(mults)
        cp = exact_charpoly(mults)
        top = max(sympy.real_roots(sympy.Poly(cp, X)))
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
        old_lo, old_hi, old_exact, old_converged = _old_estimate(mults)
        assert (est.exact, est.converged) == (old_exact, old_converged), mults
        if old_exact:
            assert (est.rho_lo, est.rho_hi) == (old_lo, old_hi), mults
        assert est.rho_lo <= old_hi and old_lo <= est.rho_hi, mults
        for rows in growth_components(trim(build_automaton(mults))):
            _assert_agrees(_cw_bounds(rows), _restarted_enclosure(rows), mults)


def test_growth_components_match_structural_predicate():
    for m in range(1, 3001):
        if m % 3 == 0:
            continue
        t = trim(build_automaton([1, m]))
        old = any(_has_cycle(r) and not _is_bare_cycle(r) for r in _old_rows(t))
        assert bool(growth_components(t)) == old, m


# --- the row-sum certificate and the per-resume Tarjan, kept as oracles ---


def _rowsum_cw_bounds(rows):
    """The certificate loop summing each sparse row per step."""
    n = len(rows)
    x = [1] * n
    steps, reading = 0, FIRST_READING
    while True:
        y = [x[i] + sum(x[j] for j in rows[i]) for i in range(n)]
        if steps == reading:
            ratios = [Fraction(y[i], x[i]) for i in range(n)]
            lo, hi = min(ratios) - 1, max(ratios) - 1
            converged = hi - lo <= TARGET_WIDTH
            if converged or reading >= MAX_ITERATIONS:
                return lo, hi, converged
            reading *= 2
        shift = max(v.bit_length() for v in y) - 64
        if shift > 0:
            y = [max(1, v >> shift) for v in y]
        x = y
        steps += 1


def _parent_scc(transitions):
    """Tarjan rebuilding each vertex's successor list on every resume."""
    n = len(transitions)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            edges = [t for t in transitions[v] if t is not None]
            while ei < len(edges):
                w = edges[ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def _assert_agrees(got, oracle, label):
    """The float-seeded enclosure overlaps the all-ones one, and meets
    TARGET_WIDTH wherever the all-ones one did."""
    lo, hi, converged = got
    old_lo, old_hi, old_converged = oracle
    assert lo <= old_hi and old_lo <= hi, label
    if old_converged:
        assert converged and hi - lo <= TARGET_WIDTH, label


def _assert_matches_oracles(mults):
    built = build_automaton(mults)
    trimmed = trim(built)
    for t in (built.transitions, trimmed.transitions):
        assert strongly_connected_components(t) == _parent_scc(t), mults
    growth = growth_components(trimmed)
    for rows in growth:
        _assert_agrees(_cw_bounds(rows), _rowsum_cw_bounds(rows), mults)
    return growth


def test_flat_step_matches_rowsum_loop_on_criterion_7_sweep():
    for m in range(1, 1001):
        if m % 3:
            _assert_matches_oracles([1, m])


def test_flat_step_matches_rowsum_loop_on_seeded_multipliers():
    rng = random.Random(9)
    sampled = 0
    while sampled < 30:
        m = rng.randrange(2, 10**4 + 1)
        if m % 3:
            _assert_matches_oracles([1, m])
            sampled += 1


def test_flat_step_matches_rowsum_loop_on_special_sets():
    assert len(_assert_matches_oracles([1, 4, 256])) == 1
    assert _assert_matches_oracles([1, 7, 49]) == []
    # the one-state machine: a doubled self-loop, no padding slot used
    assert _assert_matches_oracles([1]) == [[[0, 0]]]


def test_flat_step_matches_rowsum_loop_without_convergence():
    # a 100-cycle with one chord: the entries spread over more than 64 bits,
    # so renormalizing floors small entries at 1 (12553 times), and the
    # certificate is still wider than TARGET_WIDTH after MAX_ITERATIONS steps
    rows = [[0, 1], [0, 2]] + [[i + 1] for i in range(2, 99)] + [[0]]
    lo, hi, converged = _cw_bounds(rows)
    assert not converged and hi - lo > TARGET_WIDTH
    assert (lo, hi, converged) == _rowsum_cw_bounds(rows)
    # the same spread keeps the float seed from settling, so the certificate
    # starts from all ones
    assert _seed(rows) is None


def _seed(rows):
    return _float_seed(rows, _period(rows))


def test_float_seed_survives_entries_below_the_float_range():
    # the Perron entries along a 1600-state chain fall by a factor of about
    # phi per state, to about 2^-1110 of the largest: below the smallest
    # float, so unfloored renormalization would leave zero entries
    rows = [[0, 1], [0, 2]] + [[i + 1] for i in range(2, 1602)] + [[0]]
    assert _seed(rows) is None
    lo, hi, converged = _cw_bounds(rows)
    assert not converged and lo <= hi
    # rho is 1/z for the root z of z + z^2 + z^1603 = 1, and that sum grows
    # with z, so the enclosure holds it when it is <= 1 at 1/hi, >= 1 at 1/lo
    def cycle_sum(z):
        return z + z**2 + z**1603

    assert cycle_sum(1 / hi) <= 1 <= cycle_sum(1 / lo)


# the 3-free M <= 3000 whose certified enclosure holds phi: 3^k + 1 for
# k <= 7 and 3^(2k) - 3^k + 1 for k <= 3
PHI_MULTIPLIERS = (4, 7, 10, 28, 73, 82, 244, 703, 730, 2188)


@pytest.mark.parametrize("m", PHI_MULTIPLIERS)
def test_enclosure_holds_phi_exactly(m):
    est = hausdorff_dimension([1, m], prefix_depth=1)
    assert est.converged and 1 < est.rho_lo
    # phi is the positive root of x^2 - x - 1, negative below it and
    # positive above
    assert est.rho_lo**2 - est.rho_lo - 1 <= 0 <= est.rho_hi**2 - est.rho_hi - 1


def _fibonacci_counts(depth):
    counts = [2, 3]
    while len(counts) < depth:
        counts.append(counts[-1] + counts[-2])
    return tuple(counts)


# {1, 7} and {1, 4} are both the golden-mean shift
_GOLDEN_MEAN = (
    Fraction(9007199254740992, 5566755282872779),
    Fraction(14573954537613771, 9007199254740992),
    True,
    _fibonacci_counts(60),
)

# the certificate's exact bytes: a change to the power iteration (its float
# seed, its start vector, its step, its readings) must update these on
# purpose, and show that each new enclosure overlaps the one it replaces
# (PARENT_ENCLOSURES)
GOLDEN = {
    (1, 2): (Fraction(1), Fraction(1), True, (1,) * 60),
    (1, 7): _GOLDEN_MEAN,
    (1, 4): _GOLDEN_MEAN,
    (1, 52): (
        Fraction(1844612513046079, 1511055868558730),
        Fraction(3022111737117460, 2475630867446387),
        True,
        (
            2, 3, 4, 5, 6, 7, 9, 11, 13, 16, 20, 24, 29, 36, 44, 53, 65, 80, 97, 118,
            145, 177, 215, 263, 322, 392, 478, 585, 714, 870, 1063, 1299, 1584, 1933,
            2362, 2883, 3517, 4295, 5245, 6400, 7812, 9540, 11645, 14212, 17352,
            21185, 25857, 31564, 38537, 47042, 57421, 70101, 85579, 104463, 127522,
            155680, 190042, 231985, 283202, 345722,
        ),
    ),
    (1, 4, 256): (
        Fraction(6602952986525792, 5137689039384385),
        Fraction(1363292352398114, 1060763599357141),
        True,
        (
            2, 3, 4, 6, 9, 11, 13, 16, 20, 26, 35, 46, 59, 75, 95, 121, 156, 202,
            261, 336, 431, 552, 708, 910, 1171, 1507, 1938, 2490, 3198, 4108, 5279,
            6786, 8724, 11214, 14412, 18520, 23799, 30585, 39309, 50523, 64935,
            83455, 107254, 137839, 177148, 227671, 292606, 376061, 483315, 621154,
            798302, 1025973, 1318579, 1694640, 2177955, 2799109, 3597411, 4623384,
            5941963, 7636603,
        ),
    ),
    (1, 9997): (
        Fraction(2151963779045814, 1611622757209219),
        Fraction(8978051184865916, 6723733803397835),
        True,
        (
            2, 3, 5, 7, 9, 13, 17, 23, 33, 46, 63, 86, 118, 160, 217, 284, 375, 489,
            628, 813, 1053, 1378, 1799, 2361, 3097, 4058, 5340, 7025, 9267, 12227,
            16166, 21389, 28286, 37450, 49594, 65773, 87265, 115864, 153910,
            204509, 271935, 361605, 481141, 640377, 852634, 1135582, 1512569,
            2015323, 2685317, 3578952, 4770610, 6359819, 8479897, 11307576,
            15080583, 20114004, 26830389, 35793222, 47753148, 63715130,
        ),
    ),
}


@pytest.mark.parametrize("mults", sorted(GOLDEN))
def test_certificate_bytes_are_pinned(mults):
    est = hausdorff_dimension(list(mults))
    got = (est.rho_lo, est.rho_hi, est.converged, est.prefix_counts)
    assert got == GOLDEN[mults]


# the enclosures that the float seed iterating A + I on every component gave
# for the entries whose bytes moved when primitive components began to
# iterate A
PARENT_ENCLOSURES = {
    (1, 52): (
        Fraction(6044223474198079, 4951261734893385),
        Fraction(4503599627370496, 3689225026078231),
    ),
    (1, 4, 256): (
        Fraction(5453169409602106, 4243054397446179),
        Fraction(825369123320263, 642211129925612),
    ),
    (1, 9997): (
        Fraction(8607855116453324, 6446491029058097),
        Fraction(8978051184828820, 6723733803366931),
    ),
}


@pytest.mark.parametrize("mults", sorted(PARENT_ENCLOSURES))
def test_rerecorded_certificates_overlap_the_parent(mults):
    lo, hi, converged, _ = GOLDEN[mults]
    old_lo, old_hi = PARENT_ENCLOSURES[mults]
    assert lo <= old_hi and old_lo <= hi
    assert converged and hi - lo <= TARGET_WIDTH


# --- the A + I float seed and the forward prefix scatter, kept as oracles ---


def _parent_float_seed(rows):
    """The float seed iterating B = A + I on rows padded to index triples."""
    n = len(rows)
    triples = [(i, *(row + [n, n])[:2]) for i, row in enumerate(rows)]
    x = [1.0] * n + [0.0]
    for _ in range(0, MAX_ITERATIONS, dimension._FLOAT_BLOCK):
        for _ in range(dimension._FLOAT_BLOCK):
            y = [x[i] + x[a] + x[b] for i, a, b in triples]
            y.append(0.0)
            x, prev = y, x
        ratios = [v / u for v, u in zip(x[:n], prev)]
        top = max(x)
        low = top * dimension._FLOAT_FLOOR
        if max(ratios) - min(ratios) < dimension._FLOAT_SETTLED and min(x[:n]) >= low:
            return [int(v / low) for v in x[:n]]
        if top > dimension._FLOAT_RESCALE:
            x = [v / top if v > low else dimension._FLOAT_FLOOR for v in x[:n]]
            x.append(0.0)
    return None


def _parent_cw_bounds(rows):
    """_cw_bounds started from the A + I seed (its integer loop is the same)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dimension, "_float_seed", lambda rows, period: _parent_float_seed(rows))
        return _cw_bounds(rows)


def _parent_prefix_counts(a, depth):
    """Forward path counting from the start state: each step scatters every
    state's count onto its targets, and count(r) sums the vector."""
    vec = [0] * a.num_states
    vec[0] = 1
    counts = []
    for _ in range(depth):
        nxt = [0] * a.num_states
        for i, count in enumerate(vec):
            if count:
                for t in a.transitions[i]:
                    if t is not None:
                        nxt[t] += count
        vec = nxt
        counts.append(sum(vec))
    return tuple(counts)


def _seeded_sets():
    """Special sets, 40 seeded pairs {1, M} with M <= 10^4 and 20 seeded
    triples {1, a, b} with a, b <= 400."""
    rng = random.Random(26)
    sets = [[1], [1, 2], [1, 5], [1, 4981], [1, 4, 256], [1, 10, 28]]
    while len(sets) < 46:
        m = rng.randrange(2, 10**4 + 1)
        if m % 3:
            sets.append([1, m])
    while len(sets) < 66:
        sets.append([1, rng.randrange(2, 401), rng.randrange(2, 401)])
    return sets


def test_power_steps_on_a_overlap_the_parent_enclosures():
    for mults in _seeded_sets():
        for rows in growth_components(trim(build_automaton(mults))):
            lo, hi, converged = _cw_bounds(rows)
            old_lo, old_hi, _ = _parent_cw_bounds(rows)
            assert lo <= old_hi and old_lo <= hi, mults
            assert converged and hi - lo <= TARGET_WIDTH, mults


def test_backward_prefix_counts_match_the_forward_scatter():
    # the untrimmed machines have dead digits, and {1, 4, 256} has dead
    # states (trimming keeps 6 of its 10): the backward count reads both as 0
    assert trim(build_automaton([1, 4, 256])).num_states == 6
    for mults in _seeded_sets():
        built = build_automaton(mults)
        for machine in (built, trim(built)):
            assert prefix_counts(machine, 60) == _parent_prefix_counts(machine, 60), mults


def test_imprimitive_components_iterate_a_plus_i():
    # {1, 4981} has a growth component of 18 states and period 2 beside a
    # primitive one of 190; the rows [[1, 2], [0], [0]] have period 2 and
    # rho = sqrt(2)
    growth = growth_components(trim(build_automaton([1, 4981])))
    assert [(len(rows), _period(rows)) for rows in growth] == [(18, 2), (190, 1)]
    rows_4981 = growth[0]
    for rows in (rows_4981, [[1, 2], [0], [0]]):
        assert _period(rows) == 2
        assert _seed(rows) is not None
        lo, hi, converged = _cw_bounds(rows)
        assert converged and hi - lo <= TARGET_WIDTH
    assert lo**2 <= 2 <= hi**2
    # -rho is an eigenvalue of A too, so A alone keeps oscillating from all
    # ones (on {1, 4981} all ones happens to have no -rho part)
    assert _float_seed([[1, 2], [0], [0]], 1) is None
    assert _period([[0, 1], [0]]) == 1
