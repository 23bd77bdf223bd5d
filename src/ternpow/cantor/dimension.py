"""Prefix-growth dimension of the carry machine's language.

The number of accepted length-r prefixes grows like rho^r where rho is the
spectral radius of the trimmed transition graph; log3(rho) is reported as
the Hausdorff dimension of the corresponding 3-adic set, the standard
identification for graph-directed constructions (the identification, not a
re-derivation, is what this module implements).

rho is the largest radius over the strongly connected components.  Every
state has at most two out-edges, so a component in which no state keeps
both of them inside is a bare cycle (radius 1) or a single state off every
cycle (radius 0).  The growth components, where some state keeps both
out-edges inside, are exactly those with radius above 1: rho = 1 when there
is none, and otherwise each gets one Collatz-Wielandt certificate.  For
B = A + I and any positive integer vector x, the min and max of
(Bx)_i / x_i enclose rho(B) = rho(A) + 1 in exact rational arithmetic.
x is a float guess checked exactly (the pattern of Rump, "Verification
methods", Acta Numerica 19, 2010): float power iteration, on A when the
component is primitive (faster than B) and on B when not, runs until
its ratios agree to TARGET_WIDTH / 8.  Its vector is rounded to positive
integers, and integer power iteration on B starts from those, reading the
enclosure at once and after FIRST_READING, 2 * FIRST_READING, ... steps.
The floats can only widen the enclosure, never make it wrong; a component
whose floats do not settle starts from all ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, itemgetter, truediv

from ..errors import SizeGuardError
from ..precision import MIN_PRECISION, log3_bounds
from .automaton import (
    DEFAULT_STATE_LIMIT,
    CarryAutomaton,
    build_automaton,
    prefix_counts,
    trim,
)

DEFAULT_PREFIX_DEPTH = 60
# the deepest prefix table the CLI accepts: a count stays below 2^R, and
# 2^10000 has 3011 decimal digits, inside the 4300-digit limit of Python's
# int-to-str conversion that printing the counts goes through
MAX_PREFIX_DEPTH = 10_000
# the certificate is read after 0, 64, 128, ..., MAX_ITERATIONS power steps
# and returned at the first reading narrower than TARGET_WIDTH
TARGET_WIDTH = Fraction(1, 10**10)
FIRST_READING = 64
MAX_ITERATIONS = 4096
# the float seed: power steps between spread readings, the spread that
# counts as settled, the max that triggers a renormalization, and the floor
# of an entry relative to the max, which is the integer loop's floor of 1
# at its 64-bit scale
_FLOAT_BLOCK = 8
_FLOAT_SETTLED = float(TARGET_WIDTH) / 8
_FLOAT_RESCALE = 2.0**512
_FLOAT_FLOOR = 2.0**-64
# exact_charpoly is O(n^3) integer additions: 256 trimmed states ({1, 4375})
# take 0.4 to 0.65 s on a 2-vCPU Xeon, 442 ({1, 14581}) about 3.3 s
_CHARPOLY_STATE_LIMIT = 256


def strongly_connected_components(
    transitions: tuple[tuple[int | None, int | None], ...]
) -> list[list[int]]:
    """Tarjan's algorithm, iterative to dodge recursion limits.

    The work stack holds vertices; edge[v] is the next slot of v's
    transition pair to follow.  A vertex whose component is complete gets
    index n, which no low-link reaches, so the min updates need no on-stack
    flags.  Components come out in Tarjan's order, each listed from the top
    of the vertex stack down to its root.
    """
    n = len(transitions)
    index = [-1] * n
    low = [0] * n
    edge = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            pair = transitions[v]
            e = edge[v]
            while e < 2:
                w = pair[e]
                e += 1
                if w is None:
                    continue
                if index[w] == -1:
                    edge[v] = e
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append(w)
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if lv == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    comp.reverse()
                    for w in comp:
                        index[w] = n
                    comps.append(comp)
                elif work:
                    u = work[-1]
                    if lv < low[u]:
                        low[u] = lv
    return comps


def _growth_ids(transitions, comps: list[list[int]]) -> set[int]:
    """Positions in comps of the components with radius > 1: those in which
    some state keeps both out-edges inside, read from per-state ids."""
    comp_of = [0] * len(transitions)
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    return {
        comp_of[v]
        for v, (a, b) in enumerate(transitions)
        if a is not None and b is not None and comp_of[a] == comp_of[b] == comp_of[v]
    }


def has_growth(a: CarryAutomaton) -> bool:
    """Whether the trimmed machine has a growth component, read from a.

    a need not be trimmed: every state on a cycle has an infinite
    continuation, so trimming removes no state or edge of a component that
    contains a cycle, and a state keeping both out-edges in its own
    component lies on a cycle.  The test is the same before and after.
    """
    return bool(_growth_ids(a.transitions, strongly_connected_components(a.transitions)))


def growth_components(trimmed: CarryAutomaton) -> list[list[list[int]]]:
    """Sparse rows of every strongly connected component with radius > 1,
    picked by the same test as has_growth.

    A row lists the local indices of a state's targets inside its
    component (repeated for a doubled edge), so all the spectral work stays
    linear in the state count.
    """
    comps = strongly_connected_components(trimmed.transitions)
    growth = []
    for k in sorted(_growth_ids(trimmed.transitions, comps)):
        pos = {v: i for i, v in enumerate(comps[k])}
        growth.append(
            [[pos[t] for t in trimmed.transitions[v] if t in pos] for v in comps[k]]
        )
    return growth


def _period(rows: list[list[int]]) -> int:
    """Period of an irreducible component given by sparse rows (1 means
    primitive): the gcd over its edges u -> v of level[u] + 1 - level[v],
    with breadth-first levels."""
    level = [-1] * len(rows)
    level[0] = 0
    order = [0]
    for u in order:
        for v in rows[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                order.append(v)
    return gcd(*(level[u] + 1 - level[v] for u, row in enumerate(rows) for v in row))


def _float_seed(rows: list[list[int]], period: int) -> list[int] | None:
    """Positive integer start vector for _cw_bounds, or None when the floats
    do not settle.

    Power-iterates A from all ones when period is 1, B = A + I otherwise,
    over rows permuted so that those with two targets come first: a step
    sums their targets, then gathers the rest by one itemgetter whose last
    index n, a slot holding 0, keeps it returning a tuple (all ones is
    exact when no row has one target).  The max never falls, as every state
    has a predecessor in its component.  Past _FLOAT_RESCALE the vector is
    divided by its max, entries floored at _FLOAT_FLOOR.  Every _FLOAT_BLOCK
    steps the spread of the step ratios is read; below _FLOAT_SETTLED, with
    no entry under _FLOAT_FLOOR of the max, the vector is permuted back and
    rounded to floor(v * 2^64 / max).
    """
    n = len(rows)
    two = [i for i, row in enumerate(rows) if len(row) == 2]
    one = [i for i, row in enumerate(rows) if len(row) == 1]
    if not one:
        return [1] * n
    at = [0] * n
    for j, i in enumerate(two + one):
        at[i] = j
    pairs = [(at[rows[i][0]], at[rows[i][1]]) for i in two]
    gather = itemgetter(*[at[rows[i][0]] for i in one], n)
    x = [1.0] * n + [0.0]
    for _ in range(0, MAX_ITERATIONS, _FLOAT_BLOCK):
        for _ in range(_FLOAT_BLOCK):
            y = [x[a] + x[b] for a, b in pairs]
            y.extend(gather(x))
            if period > 1:
                y = list(map(add, y, x))
            x, prev = y, x
        ratios = list(map(truediv, x[:n], prev))
        top = max(x)
        low = top * _FLOAT_FLOOR
        if max(ratios) - min(ratios) < _FLOAT_SETTLED and min(x[:n]) >= low:
            return [int(x[j] / low) for j in at]
        if top > _FLOAT_RESCALE:
            x = [v / top if v > low else _FLOAT_FLOOR for v in x[:n]]
            x.append(0.0)
    return None


def _cw_bounds(rows: list[list[int]]) -> tuple[Fraction, Fraction, bool]:
    """Collatz-Wielandt enclosure of the spectral radius of an irreducible
    component given by sparse rows, and whether it met TARGET_WIDTH.

    Power-iterates B = A + I in integers from _float_seed's guess, or from
    all ones, renormalizing by shifts; for every positive x the min and max
    of (Bx)_i / x_i enclose rho(B) = rho(A) + 1.  x carries a trailing 0 at
    index n that pads every row to two targets, so a step is
    x_i + x_a + x_b per triple.  Entries stay positive (the shift floors at
    1), so max(y) has the largest bit length.  A reading finds the extreme
    ratios by cross-multiplication and turns only those two into Fractions.
    """
    n = len(rows)
    triples = [(i, *(row + [n, n])[:2]) for i, row in enumerate(rows)]
    x = _float_seed(rows, _period(rows)) or [1] * n
    x.append(0)
    steps, reading = 0, 0
    while True:
        y = [x[i] + x[a] + x[b] for i, a, b in triples]
        if steps == reading:
            i_lo = i_hi = 0
            for i in range(1, n):
                yi, xi = y[i], x[i]
                if yi * x[i_lo] < y[i_lo] * xi:
                    i_lo = i
                elif yi * x[i_hi] > y[i_hi] * xi:
                    i_hi = i
            lo = Fraction(y[i_lo], x[i_lo]) - 1
            hi = Fraction(y[i_hi], x[i_hi]) - 1
            converged = hi - lo <= TARGET_WIDTH
            if converged or reading >= MAX_ITERATIONS:
                return lo, hi, converged
            reading = max(FIRST_READING, 2 * reading)
        # renormalize to keep the integers from exploding
        shift = max(y).bit_length() - 64
        if shift > 0:
            y = [v >> shift or 1 for v in y]
        y.append(0)
        x = y
        steps += 1


@dataclass(frozen=True)
class DimensionEstimate:
    """log3 of the trimmed machine's growth rate, with a certified enclosure.

    rho_lo/rho_hi bound the spectral radius as exact rationals; lo/hi bound
    log3(rho).  exact is set when the enclosure is the single point rho:
    1 when no growth component exists, 2 for the unconstrained machine.
    prefix_counts tabulates accepted prefixes of the untrimmed machine;
    slope_gap is |log3(count(R))/R - value|.
    """

    multipliers: tuple[int, ...]
    states_total: int
    states_trimmed: int
    rho_lo: Fraction
    rho_hi: Fraction
    lo: Fraction
    hi: Fraction
    exact: bool
    converged: bool
    prefix_counts: tuple[int, ...]
    slope_gap: float

    @property
    def value(self) -> float:
        return float((self.lo + self.hi) / 2)

    @property
    def positive(self) -> bool:
        """Certified dim > 0."""
        return self.lo > 0

    @property
    def is_zero(self) -> bool:
        """Certified dim = 0."""
        return self.exact and self.rho_lo == self.rho_hi == 1


def hausdorff_dimension(
    ms,
    *,
    prefix_depth: int = DEFAULT_PREFIX_DEPTH,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> DimensionEstimate:
    """Dimension estimate for the multiplier set's admissible 3-adic set.

    rho starts at exactly 1 and is raised to the largest Collatz-Wielandt
    enclosure over the growth components.  A certificate still wider than
    TARGET_WIDTH after MAX_ITERATIONS steps clears converged on the result
    rather than raising.  prefix_depth (at least 1) sets how many prefix
    counts are tabulated.
    """
    if prefix_depth < 1:
        raise ValueError("prefix_depth must be >= 1")
    built = ms if isinstance(ms, CarryAutomaton) else build_automaton(ms, state_limit)
    trimmed = built if built.trimmed else trim(built)

    rho_lo = rho_hi = Fraction(1)
    converged = True
    for rows in growth_components(trimmed):
        lo, hi, ok = _cw_bounds(rows)
        rho_lo, rho_hi = max(rho_lo, lo), max(rho_hi, hi)
        converged = converged and ok

    dim_lo = log3_bounds(rho_lo, MIN_PRECISION)[0]
    dim_hi = log3_bounds(rho_hi, MIN_PRECISION)[1]
    counts = prefix_counts(built, prefix_depth)
    return DimensionEstimate(
        multipliers=built.multipliers,
        states_total=built.num_states,
        states_trimmed=trimmed.num_states,
        rho_lo=rho_lo,
        rho_hi=rho_hi,
        lo=dim_lo,
        hi=dim_hi,
        exact=rho_lo == rho_hi,
        converged=converged,
        prefix_counts=counts,
        slope_gap=_slope_gap(counts, (dim_lo + dim_hi) / 2),
    )


def _slope_gap(counts: tuple[int, ...], value: Fraction) -> float:
    """|log3(count(R))/R - value| at the deepest tabulated R."""
    r = len(counts)
    c = counts[-1]
    if c == 0:
        return float(value)
    lo, hi = log3_bounds(c, MIN_PRECISION)
    return float(abs((lo + hi) / (2 * r) - value))


def exact_charpoly(ms, state_limit: int = DEFAULT_STATE_LIMIT) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - A) of the trimmed adjacency matrix
    A: its monic integer coefficients, highest degree first.

    The power sums p_k = tr(A^k), k = 1..n, come from stepping a dense
    P <- A P over the sparse rows: row i of A P is the sum of P's rows at
    i's targets, a doubled edge counted twice.  Newton's identities
    k c_k = -(p_1 c_(k-1) + ... + p_k c_0) then give the coefficients by
    exact integer division, O(n^3) integer additions in all.  Only offered
    for machines of at most _CHARPOLY_STATE_LIMIT trimmed states; larger
    machines raise SizeGuardError.
    """
    built = ms if isinstance(ms, CarryAutomaton) else build_automaton(ms, state_limit)
    trimmed = built if built.trimmed else trim(built)
    n = trimmed.num_states
    if n > _CHARPOLY_STATE_LIMIT:
        raise SizeGuardError(
            f"charpoly limited to {_CHARPOLY_STATE_LIMIT} states, machine has {n}"
        )
    # every trimmed state keeps one or two targets
    rows = [[t for t in pair if t is not None] for pair in trimmed.transitions]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    traces = []
    for _ in range(n):
        power = [
            list(map(add, power[row[0]], power[row[1]])) if len(row) == 2 else power[row[0]]
            for row in rows
        ]
        traces.append(sum(power[i][i] for i in range(n)))
    coeffs = [1]
    for k in range(1, n + 1):
        total = -sum(traces[i - 1] * coeffs[k - i] for i in range(1, k + 1))
        c, rem = divmod(total, k)
        if rem:
            raise AssertionError(f"Newton identity: {total} not divisible by {k}")
        coeffs.append(c)
    return tuple(coeffs)
