"""Searches and scans over the carry machine.

Membership of M in the "some positive integer survives" class is decidable:
a positive N with both N and every M_i*N digit-2-free corresponds to a walk
of the carry machine ending in digit 1 whose final carry tuple consists of
digit-2-free integers (the carries are exactly the unwritten high digits of
the products).  That decision is the only witness search: a miss proves
that no N exists at any size.

The class scan builds no machine for most multipliers.  It steps the one
carry of M as a plain integer: a single breadth-first search gives every
distance from carry 0, the witness is rebuilt from those distances by
arithmetic on the carries, and positive dimension reads from whether carry
1 is reachable (see _classify_normalized).  Only when it is not, for some
M = 1 (mod 3), is the machine built and its growth test read from the
untrimmed machine: trimming only removes states off every cycle, so it
leaves each component that contains a cycle, and each of its inner edges,
as it was, and a state keeping both out-edges in its own component is on a
cycle.  The growth test therefore gives the same answer before and after
trimming.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..precision import MIN_PRECISION, alpha0_bounds, math_floor_log3
from ..ternary import int_omits_digit
from .automaton import (
    DEFAULT_STATE_LIMIT,
    CarryAutomaton,
    MultiplierSet,
    _too_many,
    build_automaton,
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
    states in the order the search reached them.

    The order is first-in first-out, so distances never decrease along it,
    and the states at distance <= j form a prefix of it.
    """
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


def smallest_witness(ms, state_limit: int = DEFAULT_STATE_LIMIT) -> WitnessResult:
    """Exact decision plus the minimal witness when one exists.

    Minimality: breadth-first distances give the least digit count L, and
    within length L the digits are chosen greedily from the most significant
    end (each 0 saves more than all lower positions combined).  The all-zero
    state loops on digit 0, so a walk of length dist[u] to u extends to any
    longer length by leading zeros: the states where position j of a
    witness may sit are exactly those with dist[u] <= j.  Flushness is
    tested lazily, once per state, and only on the targets of 1-edges out of
    states up to the least witness layer.
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

    # the least L such that a state at distance L - 1 moves to a flush
    # state on the leading digit 1; top holds every such state
    dist, order = _distances(trans)
    top: list[int] = []
    for u in order:
        if top and dist[u] > dist[top[0]]:
            break
        if is_flush(trans[u][1]):
            top.append(u)
    if not top:
        return WitnessResult(
            multipliers=a.multipliers,
            found=False,
            n=None,
            digits=None,
            bound_denominator=None,
        )

    # allowed: the states at distance <= j from which the digits already
    # fixed above position j lead to flush; a state at distance <= j steps
    # to one at distance <= j + 1, so restricting to them loses no witness
    best_len = dist[top[0]] + 1
    digits = [0] * best_len
    digits[best_len - 1] = 1
    # every state at distance <= best_len - 2 comes before top[0]
    ball = order[: order.index(top[0])]
    allowed = set(top)
    for j in range(best_len - 2, -1, -1):
        zero_side = {u for u in ball if dist[u] <= j and trans[u][0] in allowed}
        if zero_side:
            allowed = zero_side
        else:
            digits[j] = 1
            allowed = {u for u in ball if dist[u] <= j and trans[u][1] in allowed}
            if not allowed:
                raise AssertionError("witness reconstruction lost feasibility")

    n = sum(d * 3**j for j, d in enumerate(digits))
    if not is_flush(a.walk(digits)):
        raise AssertionError("reconstructed witness rejected by the machine")
    for m in a.multipliers:
        if not int_omits_digit(n * m, 2):
            raise AssertionError("reconstructed witness fails the digit check")

    return WitnessResult(
        multipliers=a.multipliers,
        found=True,
        n=n,
        digits=tuple(digits),
        bound_denominator=_bound_denominator(n, a.multipliers[-1]),
    )


@dataclass(frozen=True)
class GreedyElement:
    """A length-r admissible prefix with leading digit 1 (least position)."""

    m: int
    digits: tuple[int, ...]
    value: int


def greedy_element(m: int, r: int) -> GreedyElement:
    """Digit string d0=1, d1..d_{r-1} with the low r digits of m*value 2-free.

    Walks the {1, m} carry machine from the state after the leading 1,
    taking digit 0 whenever the machine allows it and digit 1 otherwise.
    The walk never stalls: from carry c, digit 0 dies only when
    c = 2 mod 3 and digit 1 only when m + c = 2 mod 3, which for
    m = 1 mod 3 cannot both hold, so every state keeps an exit.
    """
    if m % 3 != 1:
        raise ValueError("m must be congruent to 1 mod 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    a = build_automaton(MultiplierSet.of([m]))

    state = a.transitions[0][1]
    if state is None:
        raise AssertionError("digit 1 rejected at start despite m % 3 == 1")
    digits = [1]
    for _ in range(r - 1):
        d = 0 if a.transitions[state][0] is not None else 1
        state = a.transitions[state][d]
        if state is None:
            raise AssertionError(f"no exit for m={m} after {len(digits)} digits")
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
    exact structural test for spectral radius > 1): some state keeps both
    out-edges in its own strongly connected component.  Such a state lies
    on a cycle, and trimming never touches a component with a cycle, so the
    untrimmed machine gives the same answer.
    The strict witnesses are the M in the second class but not the first.
    """

    x: int
    rows: tuple[ScanRow, ...]
    mc_count: int
    mh_count: int
    strict: tuple[int, ...]


def _carry_distances(m: int, state_limit: int) -> tuple[list[int], list[int]]:
    """Breadth-first distances from carry 0 in the {1, m} machine, indexed
    by the carry of m (-1 where unreachable), and the reachable carries in
    the order the search reached them.

    From carry c, digit d is allowed iff (c + d*m) % 3 != 2 and leads to
    (c + d*m) // 3.  A carry c <= m // 2 leads to at most (m // 2 + m) // 3
    <= m // 2, so the list holds every carry.  The search reaches the states
    of build_automaton in its order, digit 0 before digit 1, so it raises
    the same SizeGuardError at the same count.
    """
    dist = [-1] * (m // 2 + 1)
    dist[0] = 0
    order = [0]
    for c in order:
        dc = dist[c] + 1
        for t in (c, c + m):
            if t % 3 != 2:
                t //= 3
                if dist[t] < 0:
                    if len(order) >= state_limit:
                        raise _too_many(MultiplierSet.of((1, m)), state_limit)
                    dist[t] = dc
                    order.append(t)
    return dist, order


def _classify_normalized(
    m: int, state_limit: int = DEFAULT_STATE_LIMIT
) -> tuple[bool, bool, int | None]:
    """(in_mc, in_mh, smallest witness) for a 3-coprime multiplier.

    Works on the integer carry of m, without building the machine:

    - Witness.  Carry 0 loops on digit 0, so the carries where position j
      of a witness may sit are exactly those with dist <= j.  The least
      length L is 1 + the least dist[u] whose digit-1 target is flush
      (digit-2-free), and the first such u in breadth-first order has it.
      The digits are then fixed greedily from the top, as smallest_witness
      does, stepping back by arithmetic: the carries that reach t on digit
      d are 3t - d*m and 3t + 1 - d*m, kept when reachable with dist <= j.
    - Growth.  For m = 1 (mod 3), carry 0 has two out-edges: its loop and
      an edge to s = (m - 1) // 3.  Every other carry is reached through s,
      and the only edge from another carry into 0 is 1 -> 0 on digit 0
      (3*0 + 1 - m < 0 for m > 1).  So s reaches 0, which puts both of
      0's out-edges inside its component as has_growth asks, iff m = 1 or
      carry 1 is reachable.  Otherwise 0's component is {0} alone and the
      built machine's other components decide.  For m = 2 (mod 3), carry 0
      is the only state and keeps one out-edge: no growth.
    """
    dist, order = _carry_distances(m, state_limit)
    if m == 1 or dist[1] >= 0:
        in_mh = True
    elif len(order) == 1:
        in_mh = False
    else:
        in_mh = has_growth(build_automaton(MultiplierSet.of((1, m)), state_limit))

    top: list[int] = []
    for u in order:
        if top and dist[u] > dist[top[0]]:
            break
        t = u + m
        if t % 3 != 2 and int_omits_digit(t // 3, 2):
            top.append(u)
    if not top:
        return False, in_mh, None

    length = dist[top[0]] + 1
    digits = [0] * length
    digits[-1] = 1
    allowed = top
    half = m // 2
    for j in range(length - 2, -1, -1):
        for d in (0, 1):
            dm = d * m
            prev = {
                u
                for t in allowed
                for u in (3 * t - dm, 3 * t + 1 - dm)
                if 0 <= u <= half and 0 <= dist[u] <= j
            }
            if prev:
                break
        else:
            raise AssertionError("witness reconstruction lost feasibility")
        digits[j] = d
        allowed = prev

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
