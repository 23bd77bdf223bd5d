"""Carry automaton for simultaneous digit-2-free multiplication.

A 3-adic integer with digits in {0,1} is fed least-significant digit first;
for each multiplier M the machine tracks the carry of the running product
M * lambda.  On input d with carry c the product emits digit (M*d + c) mod 3
and keeps carry (M*d + c) // 3; the transition exists only when every
multiplier's emitted digit stays in {0,1}.  Accepted length-r strings are
exactly the N < 3^r with {0,1} digits whose products M*N all have
digit-2-free low r digits.

Powers of 3 inside a multiplier only shift the product's digits, so
multipliers are normalized by stripping factors of 3; the multiplier 1
(the constraint that lambda itself avoids the digit 2) is implicit in the
{0,1} input alphabet and is always included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import SizeGuardError

DEFAULT_STATE_LIMIT = 1_000_000


@dataclass(frozen=True)
class MultiplierSet:
    """Strictly increasing positive multipliers."""

    multipliers: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = self.multipliers
        if not ms:
            raise ValueError("need at least one multiplier")
        if any(m < 1 for m in ms):
            raise ValueError("multipliers must be positive")
        if any(a >= b for a, b in zip(ms, ms[1:])):
            raise ValueError("multipliers must be strictly increasing")

    @classmethod
    def of(cls, values) -> "MultiplierSet":
        return cls(tuple(sorted(set(int(v) for v in values))))

    @classmethod
    def parse(cls, text: str) -> "MultiplierSet":
        """Comma-separated list, e.g. "1,7"."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty multiplier list")
        return cls.of(int(p) for p in parts)

    def normalized(self) -> "MultiplierSet":
        """Strip powers of 3, dedupe, sort, and include the implicit 1."""
        out = {1}
        for m in self.multipliers:
            while m % 3 == 0:
                m //= 3
            out.add(m)
        return MultiplierSet(tuple(sorted(out)))

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.multipliers)


@dataclass(frozen=True)
class CarryAutomaton:
    """Deterministic-per-digit carry machine over the input alphabet {0,1}.

    states[i] is the carry tuple of state i; state 0 is the all-zero start.
    transitions[i] is a (to_on_0, to_on_1) pair with None for a forbidden
    digit.  The all-zero state always loops on digit 0.
    """

    multipliers: tuple[int, ...]
    states: tuple[tuple[int, ...], ...]
    transitions: tuple[tuple[int | None, int | None], ...]
    trimmed: bool = False

    @property
    def num_states(self) -> int:
        return len(self.states)

    def walk(self, digits) -> int | None:
        """Final state after consuming digits LSF, or None if rejected."""
        s: int | None = 0
        for d in digits:
            s = self.transitions[s][d]
            if s is None:
                return None
        return s

    def to_json(self) -> str:
        payload = {
            "multipliers": list(self.multipliers),
            "trimmed": self.trimmed,
            "start": 0,
            "states": [list(c) for c in self.states],
            "transitions": [
                {"from": i, "digit": d, "to": t}
                for i, pair in enumerate(self.transitions)
                for d, t in enumerate(pair)
                if t is not None
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_dot(self) -> str:
        lines = ["digraph carries {", "  rankdir=LR;"]
        for i, c in enumerate(self.states):
            label = "(" + ",".join(str(x) for x in c) + ")"
            shape = "doublecircle" if i == 0 else "circle"
            lines.append(f'  s{i} [label="{label}", shape={shape}];')
        for i, pair in enumerate(self.transitions):
            for d, t in enumerate(pair):
                if t is not None:
                    lines.append(f'  s{i} -> s{t} [label="{d}"];')
        lines.append("}")
        return "\n".join(lines)


def build_automaton(
    ms, state_limit: int = DEFAULT_STATE_LIMIT
) -> CarryAutomaton:
    """Reachable carry machine for a multiplier set.

    Carries stay below their multiplier ((M*1 + M-1) // 3 < M), so the state
    space is finite; discovery past state_limit raises SizeGuardError.
    States are numbered in breadth-first order of discovery, digit 0 before
    digit 1.  The implicit multiplier 1 emits the input digit itself and
    always keeps carry 0, so only the other carries are stepped, and a
    set {1, m} steps its one other carry as a plain int (pair_carries).
    """
    if not isinstance(ms, MultiplierSet):
        ms = MultiplierSet.of(ms)
    ms = ms.normalized()
    mults = ms.multipliers
    if len(mults) == 2:
        return _build_pair(mults[1], pair_carries(mults[1], state_limit)[1])

    start = (0,) * len(mults)
    index = {start: 0}
    states = [start]
    transitions: list[tuple[int | None, int | None]] = []
    # states grows while it is read, so the loop is a first-in first-out queue
    for carries in states:
        pair: list[int | None] = [None, None]
        for d in (0, 1):
            out = [0]
            for k in range(1, len(carries)):
                t = carries[k] + mults[k] * d
                if t % 3 == 2:
                    break
                out.append(t // 3)
            else:
                nxt = tuple(out)
                i = index.get(nxt)
                if i is None:
                    if len(states) >= state_limit:
                        raise _too_many(ms, state_limit)
                    i = index[nxt] = len(states)
                    states.append(nxt)
                pair[d] = i
        transitions.append((pair[0], pair[1]))
    return CarryAutomaton(
        multipliers=mults,
        states=tuple(states),
        transitions=tuple(transitions),
        trimmed=False,
    )


def pair_carries(m: int, state_limit: int) -> tuple[dict[int, int], list[int]]:
    """The one breadth-first search over the carry of m in the {1, m}
    machine: the distance from carry 0 of every reachable carry, keyed by
    the carry, and the reachable carries in the order the search reached
    them.

    From carry c, digit d is allowed iff (c + d*m) % 3 != 2 and leads to
    (c + d*m) // 3; digit 0 is tried before digit 1.  The order is first-in
    first-out, so distances never decrease along it.  Discovery past
    state_limit raises SizeGuardError, so the search never holds more than
    state_limit carries, however large m is.
    """
    dist = {0: 0}
    order = [0]
    for c in order:
        dc = dist[c] + 1
        for t in (c, c + m):
            if t % 3 != 2:
                t //= 3
                if t not in dist:
                    if len(order) >= state_limit:
                        raise _too_many(MultiplierSet.of((1, m)), state_limit)
                    dist[t] = dc
                    order.append(t)
    return dist, order


def _build_pair(m: int, carries: list[int]) -> CarryAutomaton:
    """build_automaton for a normalized {1, m}, m > 1, from the carries of m
    in pair_carries' order (build_automaton's order)."""
    index = {c: i for i, c in enumerate(carries)}
    return CarryAutomaton(
        multipliers=(1, m),
        states=tuple((0, c) for c in carries),
        # a tuple of a list builds faster than a tuple of a generator
        transitions=tuple(
            [
                (
                    None if c % 3 == 2 else index[c // 3],
                    None if (c + m) % 3 == 2 else index[(c + m) // 3],
                )
                for c in carries
            ]
        ),
        trimmed=False,
    )


def _too_many(ms: MultiplierSet, state_limit: int) -> SizeGuardError:
    return SizeGuardError(f"carry machine for {{{ms}}} exceeds {state_limit} states")


def trim(a: CarryAutomaton) -> CarryAutomaton:
    """Restrict to states with infinite continuations.

    Repeatedly removes states whose every transition is dead; surviving
    paths are exactly the prefixes extendable forever.  The all-zero start
    state loops on 0 and always survives.
    """
    preds: list[list[int]] = [[] for _ in range(a.num_states)]
    live_out = [0] * a.num_states
    for i, pair in enumerate(a.transitions):
        for t in pair:
            if t is not None:
                preds[t].append(i)
                live_out[i] += 1
    dead = [i for i, n in enumerate(live_out) if n == 0]
    alive = set(range(a.num_states)) - set(dead)
    while dead:
        gone = dead.pop()
        for p in preds[gone]:  # one entry per edge into `gone`
            if p not in alive:
                continue
            live_out[p] -= 1
            if live_out[p] == 0:
                alive.remove(p)
                dead.append(p)
    if 0 not in alive:
        raise AssertionError("start state lost its zero loop")

    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    states = tuple(a.states[i] for i in keep)
    transitions = tuple(
        tuple(
            remap[t] if (t is not None and t in alive) else None
            for t in a.transitions[i]
        )
        for i in keep
    )
    return CarryAutomaton(
        multipliers=a.multipliers,
        states=states,
        transitions=transitions,
        trimmed=True,
    )


def prefix_counts(
    ms, depth: int, state_limit: int = DEFAULT_STATE_LIMIT
) -> tuple[int, ...]:
    """Exact numbers of accepted length-r digit strings for r = 1..depth
    (untrimmed machine), counted backward: r steps of v <- A v from all
    ones, a dead digit reading a slot that holds 0, leave count(r) in v[0]."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    a = ms if isinstance(ms, CarryAutomaton) else build_automaton(ms, state_limit)
    n = a.num_states
    pairs = [(n if s is None else s, n if t is None else t) for s, t in a.transitions]
    v = [1] * n + [0]
    counts = []
    for _ in range(depth):
        v = [v[s] + v[t] for s, t in pairs]
        v.append(0)
        counts.append(v[0])
    return tuple(counts)


def count_prefixes(ms, r: int, state_limit: int = DEFAULT_STATE_LIMIT) -> int:
    """Exact number of accepted length-r digit strings (untrimmed machine)."""
    counts = prefix_counts(ms, r, state_limit)
    return counts[-1] if counts else 1
