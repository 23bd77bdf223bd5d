"""Searches and scans over the carry machine.

Membership of M in the "some positive integer survives" class is decidable:
a positive N with both N and every M_i*N digit-2-free corresponds to a walk
of the carry machine ending in digit 1 whose final carry tuple consists of
digit-2-free integers (the carries are exactly the unwritten high digits of
the products).  The bounded ascending search is kept alongside as an
independent oracle and as the contract-level entry point.

The class scan costs each 3-free M one machine build, one Tarjan pass and
one witness search.  Positive dimension is read from the untrimmed machine:
trimming only removes states off every cycle, so it leaves each component
that contains a cycle, and each of its inner edges, as it was, and a state
keeping both out-edges in its own component is on a cycle.  The growth test
therefore gives the same answer before and after trimming.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

from ..precision import math_floor_log3
from ..ternary import count_free_upto, int_omits_digit, int_to_digits, nth_free
from .automaton import (
    DEFAULT_STATE_LIMIT,
    CarryAutomaton,
    MultiplierSet,
    build_automaton,
)
from .dimension import has_growth

LOG3_2 = math.log(2) / math.log(3)
DEFAULT_SCAN_LIMIT = 3000


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
    witness certifies.  exhausted tells how a miss should be read: True
    means the reachability decision proved no N exists at any size, False
    means only that none appeared below the search ceiling.
    """

    multipliers: tuple[int, ...]
    found: bool
    n: int | None
    digits: tuple[int, ...] | None
    bound_denominator: int | None
    exhausted: bool
    checked_up_to: int | None = None

    @property
    def bound(self) -> float | None:
        if self.bound_denominator is None:
            return None
        return LOG3_2 / self.bound_denominator


def _is_flush_state(carries: tuple[int, ...]) -> bool:
    # the carry tuple is the unwritten high part of each product; the walk
    # yields a 2-free integer product exactly when every carry is 2-free
    return all(int_omits_digit(c, 2) for c in carries)


def smallest_witness(ms, state_limit: int = DEFAULT_STATE_LIMIT) -> WitnessResult:
    """Exact decision plus the minimal witness when one exists.

    Minimality: breadth-first distances give the least digit count L, and
    within length L the digits are chosen greedily from the most significant
    end (each 0 saves more than all lower positions combined), with
    feasibility checked against the exact forward-reachable layer sets.
    Flushness is tested lazily, once per state, and only on the targets of
    1-edges out of states the search reaches.
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

    # layered BFS over first arrivals: the least L such that a state reached
    # in L - 1 steps moves to a flush state on the leading digit 1
    current = [0]
    seen = {0}
    best_len = 1
    while not any(is_flush(trans[u][1]) for u in current):
        nxt = []
        for u in current:
            for t in trans[u]:
                if t is not None and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        if not nxt:
            return WitnessResult(
                multipliers=a.multipliers,
                found=False,
                n=None,
                digits=None,
                bound_denominator=None,
                exhausted=True,
            )
        current = nxt
        best_len += 1

    # exact[j]: the states reachable in exactly j steps, where position j of
    # the witness may sit
    exact = [{0}]
    for _ in range(best_len - 1):
        exact.append({t for u in exact[-1] for t in trans[u] if t is not None})

    # allowed: the states of exact[j] from which the digits already fixed
    # above position j lead to flush; every u in exact[j] steps into
    # exact[j + 1], so restricting to the layer loses no witness
    digits = [0] * best_len
    digits[best_len - 1] = 1
    allowed = {u for u in exact[best_len - 1] if is_flush(trans[u][1])}
    for j in range(best_len - 2, -1, -1):
        zero_side = {u for u in exact[j] if trans[u][0] in allowed}
        if zero_side:
            allowed = zero_side
        else:
            digits[j] = 1
            allowed = {u for u in exact[j] if trans[u][1] in allowed}
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
        exhausted=True,
    )


def theorem17_search(ms, n_max: int) -> WitnessResult:
    """Bounded ascending search for the smallest witness N <= n_max.

    Runs over digit-2-free N in increasing order and tests every product
    directly on integers; a miss only says no witness exists below n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not isinstance(ms, MultiplierSet):
        ms = MultiplierSet.of(ms)
    mults = ms.normalized().multipliers
    for t in range(1, count_free_upto(n_max)):
        n = nth_free(t)
        if all(int_omits_digit(n * m, 2) for m in mults):
            return WitnessResult(
                multipliers=mults,
                found=True,
                n=n,
                digits=int_to_digits(n),
                bound_denominator=_bound_denominator(n, mults[-1]),
                exhausted=False,
                checked_up_to=n_max,
            )
    return WitnessResult(
        multipliers=mults,
        found=False,
        n=None,
        digits=None,
        bound_denominator=None,
        exhausted=False,
        checked_up_to=n_max,
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
        return LOG3_2 / 2

    @property
    def bound_b(self) -> float:
        return LOG3_2 / 6


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
    exact structural test for spectral radius > 1).  The test runs on the
    untrimmed machine: some state keeps both out-edges in its own strongly
    connected component.  Such a state lies on a cycle, and trimming never
    touches a component with a cycle, so the answer equals the trimmed one.
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
    """(in_mc, in_mh, smallest witness) for a 3-coprime multiplier."""
    a = build_automaton(MultiplierSet.of([1, m]), state_limit)
    wit = smallest_witness(a)
    return wit.found, has_growth(a), wit.n


def scan_problems(
    x: int,
    limit: int = DEFAULT_SCAN_LIMIT,
    workers: int = 1,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> ScanResult:
    """Classify all M = 1..x; powers of 3 inside M never change the class.

    Every machine is built under state_limit, past which SizeGuardError is
    raised.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > limit:
        raise ValueError(f"x exceeds the configured scan limit {limit}")

    def strip3(m: int) -> int:
        while m % 3 == 0:
            m //= 3
        return m

    normals = sorted({strip3(m) for m in range(1, x + 1)})
    workers = min(workers, len(normals), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            classify = partial(_classify_normalized, state_limit=state_limit)
            results = dict(zip(normals, pool.map(classify, normals)))
    else:
        results = {m: _classify_normalized(m, state_limit) for m in normals}

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
