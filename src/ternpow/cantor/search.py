"""Searches and scans over the carry machine.

Membership of M in the "some positive integer survives" class is decidable:
a positive N with both N and every M_i*N digit-2-free corresponds to a walk
of the carry machine ending in digit 1 whose final carry tuple consists of
digit-2-free integers (the carries are exactly the unwritten high digits of
the products).  That decision is the only witness search: a miss proves
that no N exists at any size.

The class scan steps the one carry of M as a plain integer: one
breadth-first search (pair_carries) gives every distance from carry 0, the
witness is rebuilt from those distances by arithmetic on the carries, and
positive dimension mostly reads from whether carry 1 is reachable, with a
machine built from the same carries for the rest (_classify_normalized).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..precision import MIN_PRECISION, alpha0_bounds, math_floor_log3
from ..ternary import int_omits_digit
from .automaton import (
    DEFAULT_STATE_LIMIT,
    CarryAutomaton,
    MultiplierSet,
    _build_pair,
    build_automaton,
    pair_carries,
)
from .dimension import has_growth

DEFAULT_SCAN_LIMIT = 3000


def _log3_2_over(d: int) -> float:
    """log3(2) / d, rounded from the midpoint of a certified enclosure."""
    lo, hi = alpha0_bounds(MIN_PRECISION)
    return float((lo + hi) / (2 * d))


def _bound_denominator(n: int, m_max: int) -> int:
    """ceil(log3(N * M_k)), at least 1: the smallest t with 3^t >= N * M_k.

    N * M_k = 1 means no constraint at all: the set is the full Cantor set.
    """
    x = n * m_max
    return 1 if x == 1 else math_floor_log3(x - 1) + 1


@dataclass(frozen=True)
class WitnessResult:
    """Smallest positive N with N and all M_i*N digit-2-free, if any.

    bound = log3(2) / ceil(log3(N * M_k)) is the dimension lower bound the
    witness certifies.  found is decided exactly by carry reachability, so
    a miss means no N exists at any size.
    """

    multipliers: tuple[int, ...]
    found: bool
    n: int | None
    digits: tuple[int, ...] | None
    bound_denominator: int | None

    @property
    def bound(self) -> float | None:
        if self.bound_denominator is None:
            return None
        return _log3_2_over(self.bound_denominator)


def _is_flush_state(carries: tuple[int, ...]) -> bool:
    # the carry tuple is the unwritten high part of each product; the walk
    # yields a 2-free integer product exactly when every carry is 2-free
    return all(int_omits_digit(c, 2) for c in carries)


def _distances(trans) -> tuple[list[int], list[int]]:
    """Breadth-first distances from state 0 (-1 where unreachable) and the
    states in the order reached, first-in first-out, so that distances never
    decrease along it."""
    dist = [-1] * len(trans)
    dist[0] = 0
    order = [0]
    for u in order:
        du = dist[u] + 1
        for t in trans[u]:
            if t is not None and dist[t] < 0:
                dist[t] = du
                order.append(t)
    return dist, order


def _steps_back(trans, order, dist, length: int):
    """back(t, d) for _least_digits: the states at distance < length - 1
    that step to t on digit d, from one scan of their transitions."""
    preds: tuple[dict[int, list[int]], ...] = ({}, {})
    for u in order:
        if dist[u] >= length - 1:
            break
        for d, t in enumerate(trans[u]):
            if t is not None:
                preds[d].setdefault(t, []).append(u)
    return lambda t, d: preds[d].get(t, ())


def _least_digits(order, dist, leads_to_flush, steps_back) -> list[int] | None:
    """Digits, least significant first, of the least witness, or None when
    no witness exists.

    order lists the reachable states in breadth-first order and dist maps
    each to its distance from the start state.  leads_to_flush(u) says
    whether digit 1 takes u to a flush state.  Once the least witness
    length is known, steps_back(length) returns back(t, d), the states that
    step to t on digit d (any at distance >= length - 1 may be left out).

    Minimality: the start state loops on digit 0, so a walk of length
    dist[u] to u extends to any longer length by leading zeros, and the
    states where position j of a witness may sit are exactly those with
    dist <= j.  The least length L is 1 + the least dist[u] with
    leads_to_flush(u); top holds every such u.  Within length L the digits
    are fixed from the most significant end, taking 0 whenever it keeps a
    witness (each 0 saves more than all lower positions combined).
    allowed holds the states at distance <= j from which the digits already
    fixed above position j lead to flush; a state at distance <= j steps to
    one at distance <= j + 1, so restricting to them loses no witness.
    """
    top: list = []
    for u in order:
        if top and dist[u] > dist[top[0]]:
            break
        if leads_to_flush(u):
            top.append(u)
    if not top:
        return None

    length = dist[top[0]] + 1
    back = steps_back(length)
    digits = [0] * length
    digits[-1] = 1
    allowed = top
    for j in range(length - 2, -1, -1):
        for d in (0, 1):
            prev = {u for t in allowed for u in back(t, d) if dist[u] <= j}
            if prev:
                break
        else:
            raise AssertionError("witness reconstruction lost feasibility")
        digits[j] = d
        allowed = prev
    return digits


def smallest_witness(ms, state_limit: int = DEFAULT_STATE_LIMIT) -> WitnessResult:
    """Exact decision plus the minimal witness when one exists.

    The digits come from _least_digits over the machine's breadth-first
    distances, stepping back through predecessor lists built only once a
    witness is known to exist.  Flushness is tested lazily, once per state,
    and only on the targets of 1-edges out of states up to the least
    witness layer.
    """
    a = ms if isinstance(ms, CarryAutomaton) else build_automaton(ms, state_limit)
    trans, states = a.transitions, a.states
    flush: dict[int, bool] = {}

    def is_flush(t: int | None) -> bool:
        if t is None:
            return False
        ok = flush.get(t)
        if ok is None:
            ok = flush[t] = _is_flush_state(states[t])
        return ok

    dist, order = _distances(trans)
    steps_back = partial(_steps_back, trans, order, dist)
    digits = _least_digits(order, dist, lambda u: is_flush(trans[u][1]), steps_back)
    if digits is None:
        return WitnessResult(a.multipliers, False, None, None, None)

    n = sum(d * 3**j for j, d in enumerate(digits))
    if not is_flush(a.walk(digits)):
        raise AssertionError("reconstructed witness rejected by the machine")
    for m in a.multipliers:
        if not int_omits_digit(n * m, 2):
            raise AssertionError("reconstructed witness fails the digit check")

    bound_denominator = _bound_denominator(n, a.multipliers[-1])
    return WitnessResult(a.multipliers, True, n, tuple(digits), bound_denominator)


@dataclass(frozen=True)
class GreedyElement:
    """A length-r admissible prefix with leading digit 1 (least position)."""

    m: int
    digits: tuple[int, ...]
    value: int


def greedy_element(m: int, r: int) -> GreedyElement:
    """Digit string d0=1, d1..d_{r-1} with the low r digits of m*value 2-free.

    Steps the integer carry of m in the {1, m} machine from the carry after
    the leading 1, taking digit 0 whenever the machine allows it and digit 1
    otherwise: from carry c, digit d leads to (c + d*m) // 3 and is allowed
    unless c + d*m = 2 mod 3.  The walk never stalls: digit 0 dies only
    when c = 2 mod 3 and digit 1 only when m + c = 2 mod 3, which for
    m = 1 mod 3 cannot both hold, so every carry keeps an exit.
    """
    if m % 3 != 1:
        raise ValueError("m must be congruent to 1 mod 3")
    if r < 1:
        raise ValueError("r must be >= 1")

    c = m // 3  # m = 1 mod 3 emits digit 1 on the leading 1
    digits = [1]
    for _ in range(r - 1):
        d = 1 if c % 3 == 2 else 0
        t = c + d * m
        if t % 3 == 2:
            raise AssertionError(f"no exit for m={m} after {len(digits)} digits")
        c = t // 3
        digits.append(d)
    return GreedyElement(
        m=m,
        digits=tuple(digits),
        value=sum(d * 3**j for j, d in enumerate(digits)),
    )


@dataclass(frozen=True)
class SigmaSubsetReport:
    """Block-pattern subsets checked against their host machines.

    sigma_a: digits with every odd position 0 (values sum eps_n * 9^n), fed
    to the {1,4} machine.  sigma_b: only each 6-block's low digit free
    (values sum eps_n * 729^n), fed to the {1,4,256} machine.  The implied
    dimension lower bounds are log3(2)/2 and log3(2)/6.
    """

    r: int
    sigma_a_count: int
    sigma_a_all_accepted: bool
    sigma_b_count: int
    sigma_b_all_accepted: bool

    @property
    def bound_a(self) -> float:
        return _log3_2_over(2)

    @property
    def bound_b(self) -> float:
        return _log3_2_over(6)


def _blocks_all_accepted(
    a: CarryAutomaton, blocks: tuple[tuple[int, ...], ...], num_blocks: int
) -> bool:
    """Whether every concatenation of `num_blocks` blocks is accepted.

    Walks sets of states block by block; a None transition anywhere means
    some concrete string is rejected, so acceptance of all strings is
    equivalent to the set walk never dying.
    """
    current = {0}
    for _ in range(num_blocks):
        nxt = set()
        for u in current:
            for block in blocks:
                s: int | None = u
                for d in block:
                    s = a.transitions[s][d]
                    if s is None:
                        return False
                nxt.add(s)
        current = nxt
    return True


def verify_sigma_subsets(r: int) -> SigmaSubsetReport:
    """Check the two block subsets land inside their multiplier machines."""
    if r % 6 != 0 or not (6 <= r <= 36):
        raise ValueError("r must be a multiple of 6 with 6 <= r <= 36")

    machine_a = build_automaton(MultiplierSet.of([1, 4]))
    machine_b = build_automaton(MultiplierSet.of([1, 4, 256]))

    # digits are consumed least-significant first, so each block leads with
    # its free low digit
    blocks_a = ((0, 0), (1, 0))
    blocks_b = ((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))

    return SigmaSubsetReport(
        r=r,
        sigma_a_count=2 ** (r // 2),
        sigma_a_all_accepted=_blocks_all_accepted(machine_a, blocks_a, r // 2),
        sigma_b_count=2 ** (r // 6),
        sigma_b_all_accepted=_blocks_all_accepted(machine_b, blocks_b, r // 6),
    )


@dataclass(frozen=True)
class ScanRow:
    m: int
    normalized_m: int
    in_mc: bool
    in_mh: bool
    witness: int | None


@dataclass(frozen=True)
class ScanResult:
    """Classification of every M <= x into the witness and dimension classes.

    in_mc: some positive integer N has N and M*N both digit-2-free (exact
    reachability decision).  in_mh: the admissible set of {1, M} has
    positive dimension, i.e. its trimmed machine has a growth component (an
    exact structural test for spectral radius > 1, read by has_growth).
    The strict witnesses are the M in the second class but not the first.
    """

    x: int
    rows: tuple[ScanRow, ...]
    mc_count: int
    mh_count: int
    strict: tuple[int, ...]


def _classify_normalized(
    m: int, state_limit: int = DEFAULT_STATE_LIMIT
) -> tuple[bool, bool, int | None]:
    """(in_mc, in_mh, smallest witness) for a 3-coprime multiplier.

    Works on the integer carry of m:

    - Witness.  _least_digits over the carry distances, testing each
      digit-1 target for flushness (digit-2-free) as it goes, and stepping
      back by arithmetic: the carries that reach t on digit d are
      3t - d*m and 3t + 1 - d*m, kept when reachable.
    - Growth.  For m = 1 (mod 3), carry 0 has two out-edges: its loop and
      an edge to s = (m - 1) // 3.  Every other carry is reached through s,
      and the only edge from another carry into 0 is 1 -> 0 on digit 0
      (3*0 + 1 - m < 0 for m > 1).  So s reaches 0, which puts both of
      0's out-edges inside its component as has_growth asks, iff m = 1 or
      carry 1 is reachable.  Otherwise 0's component is {0} alone, and
      has_growth reads the other components from the machine built on the
      same carries.  For m = 2 (mod 3), carry 0 is the only state and keeps
      one out-edge: no growth.
    """
    dist, order = pair_carries(m, state_limit)
    if m == 1 or 1 in dist:
        in_mh = True
    elif len(order) == 1:
        in_mh = False
    else:
        in_mh = has_growth(_build_pair(m, order))

    def leads_to_flush(u: int) -> bool:
        t = u + m
        return t % 3 != 2 and int_omits_digit(t // 3, 2)

    def back(t: int, d: int):
        u = 3 * t - d * m
        return filter(dist.__contains__, (u, u + 1))

    digits = _least_digits(order, dist, leads_to_flush, lambda length: back)
    if digits is None:
        return False, in_mh, None

    n = sum(d * 3**j for j, d in enumerate(digits))
    if not (int_omits_digit(n, 2) and int_omits_digit(n * m, 2)):
        raise AssertionError("reconstructed witness fails the digit check")
    return True, in_mh, n


def scan_problems(x: int, state_limit: int = DEFAULT_STATE_LIMIT) -> ScanResult:
    """Classify all M = 1..x; powers of 3 inside M never change the class.

    Every carry search runs under state_limit, past which SizeGuardError is
    raised, as building the machine would.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > DEFAULT_SCAN_LIMIT:
        raise ValueError(f"x exceeds the scan limit {DEFAULT_SCAN_LIMIT}")

    def strip3(m: int) -> int:
        while m % 3 == 0:
            m //= 3
        return m

    results = {
        m: _classify_normalized(m, state_limit)
        for m in sorted({strip3(m) for m in range(1, x + 1)})
    }

    rows = []
    for m in range(1, x + 1):
        in_mc, in_mh, wit = results[strip3(m)]
        rows.append(
            ScanRow(
                m=m,
                normalized_m=strip3(m),
                in_mc=in_mc,
                in_mh=in_mh,
                witness=wit,
            )
        )
    return ScanResult(
        x=x,
        rows=tuple(rows),
        mc_count=sum(1 for r in rows if r.in_mc),
        mh_count=sum(1 for r in rows if r.in_mh),
        strict=tuple(r.m for r in rows if r.in_mh and not r.in_mc),
    )
