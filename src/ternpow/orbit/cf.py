"""Exact continued fraction of log3(2).

Every partial quotient comes from one certified enclosure lo < log3(2) < hi
with exact rational endpoints.  The Euclidean algorithm runs on both
endpoints in lockstep, in integer arithmetic; a quotient is accepted only
while the two endpoints agree on it.  The reals sharing a continued-fraction
prefix form an interval, so a prefix shared by lo and hi is shared by every
real between them, log3(2) included.  When the endpoints part before the
requested depth, the enclosure is recomputed at doubled precision.  Each
accepted quotient therefore settles the same exact question the classical
ladder asks, which power 2^i * 3^j is larger, without building either power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..precision import DEFAULT_PRECISION_CAP, alpha0_bounds, escalate, power_le

# the deepest expansion the CLI accepts: q_8000 has about 4120 decimal
# digits, inside the 4300-digit limit of Python's int-to-str conversion that
# printing the convergents goes through (q_8356 passes it)
MAX_CF_DEPTH = 8000

@dataclass(frozen=True)
class CFExpansion:
    """Partial quotients a0..aD and exact convergents (p_i, q_i) of a real
    number in (0,1); a0 = 0 and the usual recurrences are enforced."""

    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        a = self.partial_quotients
        c = self.convergents
        if len(a) != len(c) or not a:
            raise ValueError("quotients and convergents must align")
        if a[0] != 0 or any(x < 1 for x in a[1:]):
            raise ValueError("expected a0 = 0 and positive later quotients")
        pm1, qm1 = 1, 0  # (p_{-1}, q_{-1})
        pm2, qm2 = 0, 1
        for i, (ai, (p, q)) in enumerate(zip(a, c)):
            if p != ai * pm1 + pm2 or q != ai * qm1 + qm2:
                raise ValueError(f"convergent recurrence fails at index {i}")
            if pm1 * q - p * qm1 != (-1) ** i:
                raise ValueError(f"determinant fails at index {i}")
            pm2, qm2, pm1, qm1 = pm1, qm1, p, q

    @classmethod
    def from_quotients(cls, quotients: tuple[int, ...] | list[int]) -> "CFExpansion":
        qs = tuple(quotients)
        pm1, qm1, pm2, qm2 = 1, 0, 0, 1
        conv = []
        for ai in qs:
            p = ai * pm1 + pm2
            q = ai * qm1 + qm2
            conv.append((p, q))
            pm2, qm2, pm1, qm1 = pm1, qm1, p, q
        return cls(qs, tuple(conv))

    @property
    def depth(self) -> int:
        return len(self.partial_quotients) - 1

    def p(self, n: int) -> int:
        if n == -1:
            return 1
        return self.convergents[n][0]

    def q(self, n: int) -> int:
        if n == -1:
            return 0
        return self.convergents[n][1]


def _shared_quotients(lo: Fraction, hi: Fraction, count: int) -> list[int]:
    """Leading partial quotients (at most ``count``) common to lo and hi."""
    n1, d1 = lo.numerator, lo.denominator
    n2, d2 = hi.numerator, hi.denominator
    out: list[int] = []
    while len(out) < count and d1 and d2:
        a = n1 // d1
        if a != n2 // d2:
            break
        out.append(a)
        n1, d1 = d1, n1 - a * d1
        n2, d2 = d2, n2 - a * d2
    return out


def cf_log3_2(depth: int, *, cap: int = DEFAULT_PRECISION_CAP) -> CFExpansion:
    """First ``depth`` partial quotients (beyond a0 = 0) of log3(2).

    Precision starts at 256 bits and doubles until the enclosure is narrow
    enough for its endpoints to share depth + 1 quotients; past ``cap`` bits
    it raises PrecisionError (a 256-bit enclosure certifies 78 quotients).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def attempt(prec: int) -> list[int] | None:
        lo, hi = alpha0_bounds(prec)
        quotients = _shared_quotients(lo, hi, depth + 1)
        return quotients if len(quotients) > depth else None

    quotients = escalate(
        attempt, cap=cap, what=f"continued fraction of log3(2) to depth {depth}"
    )
    return CFExpansion.from_quotients(quotients)


def check_lemma22(cf: CFExpansion) -> list[bool]:
    """Per-index verdicts of q_n <= 1200 * q_{n-1}^13.3 for n = 1..depth.

    The comparison is exact: both sides are raised to the 10th power, turning
    13.3 into the integer exponent 133, and ``power_le`` decides
    q_n^10 <= 1200^10 * q_{n-1}^133.
    """
    if cf.depth < 1:
        raise ValueError("need at least two convergents")
    return [
        power_le(cf.q(n), 10, (1200, 10), (cf.q(n - 1), 133))
        for n in range(1, cf.depth + 1)
    ]
