"""Leading ternary digits of floor(lambda * 2^n) and their log-scale windows.

A length-k digit string b (leading digit nonzero) owns the window
J(b) = [log3 B - (k-1), log3 (B+1) - (k-1)) where B is the value of b; these
windows partition [0,1), and the fractional part of log3(lambda * 2^n) lands
in J(b) exactly when the top k digits spell b.  Because the window endpoints
are logs of integers scaled by powers of 3, the membership test reduces to an
exact integer floor; no decision here depends on rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import InsufficientDigits
from ..precision import log3_bounds, math_floor_log3, power_le
from ..ternary import DyadicRational, floor_times_pow2, int_omits_digit, leading_digits
from .cf import CFExpansion, cf_log3_2

_VALID = frozenset("012")


@dataclass(frozen=True)
class LeadingInterval:
    """The window J(b) of fractional log3 values whose orbit points carry
    the leading digit string b."""

    digits: str

    def __post_init__(self) -> None:
        b = self.digits
        if not b or any(ch not in _VALID for ch in b):
            raise ValueError("digits must be a nonempty string over {0,1,2}")
        if b[0] == "0":
            raise ValueError("leading digit must be nonzero")

    @property
    def k(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        return int(self.digits, 3)

    @property
    def beta(self) -> Fraction:
        """Scaled leading value in [1, 3)."""
        return Fraction(self.value, 3 ** (self.k - 1))

    def _endpoint(self, B: int, prec: int) -> tuple[Fraction, Fraction]:
        # log3(B) - (k-1), exact when B is a power of 3
        lo, hi = log3_bounds(B, prec)
        return lo - (self.k - 1), hi - (self.k - 1)

    def left_enclosure(self, prec: int = 256) -> tuple[Fraction, Fraction]:
        return self._endpoint(self.value, prec)

    def right_enclosure(self, prec: int = 256) -> tuple[Fraction, Fraction]:
        return self._endpoint(self.value + 1, prec)

    def width_enclosure(self, prec: int = 256) -> tuple[Fraction, Fraction]:
        llo, lhi = self.left_enclosure(prec)
        rlo, rhi = self.right_enclosure(prec)
        return rlo - lhi, rhi - llo

    def width_in_bounds(self, prec: int = 256) -> bool:
        """Certify (9/10) * 3^-k <= width <= 3^(1-k).

        The width is log3(1 + 1/B) with 3^(k-1) <= B < 3^k, which pins it to
        [3^-k / ln 3, 3^(1-k) / ln 3]; since 1/ln 3 = 0.9102... the clean
        3^-k lower bound misses by that factor, so the certified check uses
        9/10 of it.
        """
        wlo, whi = self.width_enclosure(prec)
        k = self.k
        return wlo * 3**k * 10 >= 9 and whi * 3 ** (k - 1) <= 1


def leading_interval(b: str) -> LeadingInterval:
    """Window of [0,1) owned by the leading digit string b."""
    return LeadingInterval(b)


@dataclass(frozen=True)
class LeadingClassification:
    """Top-k digits of lambda * 2^n computed two ways.

    c1 reads them off the exact integer floor; c2 locates the orbit point in
    the J(b) partition, which collapses to an exact rational floor.  boundary
    marks the orbit point sitting exactly on a window's left endpoint (the
    value is a power of 3 times the window's leading value); the
    classification is still exact there, but no finite-precision log
    computation could have separated it.
    """

    c1: str
    c2: str
    agree: bool
    boundary: bool


def classify_leading(lam: DyadicRational, n: int, k: int) -> LeadingClassification:
    """Leading k ternary digits of lambda * 2^n, with the dual-route flag."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    # route 1: digits of the exact integer floor; leading_digits raises
    # InsufficientDigits when it has fewer than k, as it has none when
    # lambda * 2^n < 1
    iv_int = floor_times_pow2(lam, n)
    c1 = leading_digits(iv_int, k)

    # route 2: window membership of the scaled value, as an exact floor;
    # log3 of lambda * 2^n >= 1 and of its integer floor share their
    # integer part
    scaled = lam.value * Fraction(2) ** n / 3 ** (math_floor_log3(iv_int) - k + 1)
    B = scaled.numerator // scaled.denominator
    boundary = scaled.denominator == 1
    c2 = leading_digits(B, k)

    return LeadingClassification(c1=c1, c2=c2, agree=c1 == c2, boundary=boundary)


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


def theorem11_census(lam: DyadicRational, X: int, cf: CFExpansion | None = None) -> CensusReport:
    """Count n <= X whose top ternary digits omit 2.

    The prefix length k is tied to the continued fraction of log3 2: l is
    picked so q_{l-1} < X <= q_l, and k is the digit length of q_{l-1} (at
    least 1).  Values shorter than k digits are judged on all the digits they
    have, so the count is a superset of the fully digit-2-free count; it is
    checked against the 25 * X^0.9725 ceiling exactly via 400th powers.
    Equidistribution confines each run of q_{l-1} - 1 consecutive exponents
    to at most 6 * 2^(k-1) hits, which the report verifies empirically.
    """
    if X < 2:
        raise ValueError("X must be >= 2")
    if cf is None:
        cf = cf_log3_2(40)
    l = 1
    while not (cf.q(l - 1) < X <= cf.q(l)):
        l += 1
        if l > cf.depth:
            raise InsufficientDigits(f"X={X} exceeds available convergents")
    q_lower = cf.q(l - 1)
    k = max(1, math_floor_log3(q_lower) + (0 if 3 ** math_floor_log3(q_lower) == q_lower else 1))

    A, s = lam.numerator, lam.exponent
    census = 0
    exact = 0
    block_length = max(1, q_lower - 1)
    block_counts: list[int] = []
    current_block = 0
    block_index = 0
    for n in range(1, X + 1):
        v = A << n >> s
        if (n - 1) // block_length != block_index:
            block_counts.append(current_block)
            current_block = 0
            block_index = (n - 1) // block_length
        if v < 1:
            continue
        e = math_floor_log3(v)
        digits = e + 1
        top = v // 3 ** (digits - k) if digits > k else v
        if int_omits_digit(top, 2):
            census += 1
            current_block += 1
            if int_omits_digit(v, 2):
                exact += 1
    block_counts.append(current_block)

    per_block_bound = 6 * 2 ** (k - 1)
    per_block_max = max(block_counts)
    return CensusReport(
        X=X,
        lam=str(lam),
        l=l,
        k=k,
        q_lower=q_lower,
        q_upper=cf.q(l),
        census=census,
        exact_count=exact,
        bound_ok=census_bound_check(census, X),
        prefixes=2 ** (k - 1),
        block_length=block_length,
        per_block_max=per_block_max,
        per_block_bound=per_block_bound,
        per_block_ok=per_block_max <= per_block_bound,
    )
