"""Leading-digit census of floor(lambda * 2^n) (paper section 3).

For n = 1..X the census reads the top k ternary digits of the exact integer
floor(lambda * 2^n), through a certified window of it with outward rounding,
and counts the exponents whose top digits omit 2.  The prefix length k is
tied to the continued fraction of log3 2, and the counts are checked against
the paper's bounds by exact integer arithmetic; no decision here depends on
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InsufficientDigits
from ..precision import DEFAULT_PRECISION_CAP, power_le
from ..sieve import count_N
from ..ternary import DyadicRational, floor_times_pow2, nth_free
from .cf import cf_log3_2

# guard bits of the census window beyond log2 X; see theorem11_census
_GUARD_BITS = 64
# the largest X the CLI counts: the census is linear in X, about 7 s at 10^7
MAX_CENSUS_X = 10**7


@dataclass(frozen=True)
class CensusReport:
    """Count of exponents whose leading digit window omits the digit 2."""

    X: int
    lam: str
    l: int
    k: int
    q_lower: int
    q_upper: int
    census: int
    exact_count: int
    bound_ok: bool
    prefixes: int
    block_length: int
    per_block_max: int
    per_block_bound: int
    per_block_ok: bool


def census_bound_check(census: int, X: int) -> bool:
    """Exact test of census <= 25 * X^(389/400) via 400th powers."""
    return power_le(census, 400, (25, 400), (X, 389))


def theorem11_census(
    lam: DyadicRational, X: int, *, cap: int = DEFAULT_PRECISION_CAP
) -> CensusReport:
    """Count n <= X whose top ternary digits omit 2.

    The prefix length k is tied to the continued fraction of log3 2: l is
    picked so q_{l-1} < X <= q_l, and k = ceil(log3 q_{l-1}), at least 1.
    Values shorter than k digits are judged on all the digits they have, so
    the count is a superset of the fully digit-2-free count, which the
    survivor tree supplies; the census is checked against the
    25 * X^0.9725 ceiling exactly via 400th powers.  Equidistribution
    confines each run of q_{l-1} - 1 consecutive exponents to at most
    6 * 2^(k-1) hits, which the report verifies empirically.

    The top digits of v = floor(lam * 2^n) are floor(v / 3^e).  v never
    decreases in n, so the scale exponent e is carried from one exponent to
    the next and only ever raised while the quotient still has more than k
    digits.  For lam = A / 2^s, v doubles exactly at each n > s, so past
    n = max(s, 1) the census carries a window lo <= v * 2^G / 3^e <= hi of
    a few machine words instead of v, with G = _GUARD_BITS + X.bit_length().
    A step doubles both bounds, raises e while lo >> G has more than k
    digits (rounding lo down and hi up), and reads top = lo >> G when
    hi >> G agrees.  Every decision is an exact integer comparison; an
    undecided one, like every n <= max(s, 1), recomputes v exactly and
    reseeds the window from it.  The width grows at most linearly in n, so
    a test stays undecided only when v / 3^e lies within a small multiple
    of 2^-_GUARD_BITS of an integer.  Each top is below 3^k, so whether it
    omits 2 is a lookup in the set of the 2^k values below 3^k that omit 2.
    """
    if X < 2:
        raise ValueError("X must be >= 2")
    cf = cf_log3_2(40, cap=cap)
    l = 1
    while not (cf.q(l - 1) < X <= cf.q(l)):
        l += 1
        if l > cf.depth:
            raise InsufficientDigits(f"X={X} exceeds available convergents")
    q_lower = cf.q(l - 1)
    k, limit = 1, 3
    while limit < q_lower:
        k, limit = k + 1, limit * 3
    # the 2^k values below 3^k that omit 2
    free = frozenset(nth_free(t) for t in range(2**k))

    guard = _GUARD_BITS + X.bit_length()
    exact_until = max(lam.exponent, 1)
    census = e = lo = hi = 0
    block_length = max(1, q_lower - 1)
    per_block_max = current_block = 0
    for n in range(1, X + 1):
        if (n - 1) % block_length == 0:
            per_block_max = max(per_block_max, current_block)
            current_block = 0
        if n > exact_until:
            lo, hi = lo << 1, hi << 1
            while lo >> guard >= limit:
                e += 1
                lo //= 3
                hi = -(-hi // 3)
        top = lo >> guard
        if n <= exact_until or top != hi >> guard:
            v = floor_times_pow2(lam, n)
            if v < 1:
                continue
            scale = 3**e
            top = v // scale
            while top >= limit:
                e += 1
                scale *= 3
                top //= 3
            lo = (v << guard) // scale
            hi = lo + 1
        if top in free:
            census += 1
            current_block += 1
    per_block_max = max(per_block_max, current_block)

    per_block_bound = 6 * 2 ** (k - 1)
    return CensusReport(
        X=X,
        lam=str(lam),
        l=l,
        k=k,
        q_lower=q_lower,
        q_upper=cf.q(l),
        census=census,
        exact_count=count_N(lam, X),
        bound_ok=census_bound_check(census, X),
        prefixes=2 ** (k - 1),
        block_length=block_length,
        per_block_max=per_block_max,
        per_block_bound=per_block_bound,
        per_block_ok=per_block_max <= per_block_bound,
    )
