"""Certified real arithmetic for every inexact decision in the package.

Real-valued comparisons (log ratios, fractional parts, window endpoints)
are never decided on bare floats.  An enclosure is a ``(lo, hi)`` pair of
exact Fractions with lo <= x <= hi.  A decision is accepted only when the
pair separates cleanly from the threshold, and otherwise the working
precision doubles up to the ``cap`` argument its caller passes down.
Callers combine pairs in exact rational arithmetic (l * log3(2) - r is
``(l*lo - r, l*hi - r)``), so an escalation loop can only stall on a
genuine tie, which callers rule out arithmetically before asking.

The pairs come from ``alpha0_bounds`` and ``log3_bounds``, pure functions
of plain integers: log 2 = 2 atanh(1/3), log 3 = log 2 + 2 atanh(1/5), and
log r = e log 2 + 2 atanh((r' - 1)/(r' + 1)) for r = 2^e * r' with r' in
[1, 2), each series summed in fixed point with floored terms and a proven
error bound (``_atanh_floor``), and the endpoints rounded outward to dyadic
rationals at ``prec`` bits.  No library context is set and no float enters
them; the only float in this module is the first guess of
``math_floor_log3``, which exact comparisons then correct.

Questions about log3(2) itself, such as which of 3^p and 2^q is larger,
read the exact rational endpoints of a single enclosure lo < log3(2) < hi
and finish in integer arithmetic: no power of 3 or 2 is ever built.

Power-law bounds a^e <= prod b^f, with exponents up to 10^5, are decided
by ``power_le`` on directed-rounding brackets of the two sides; the literal
powers are built only when the brackets overlap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, TypeVar

from .errors import PrecisionError


# Working precision floor and default escalation cap, in bits.
MIN_PRECISION = 256
DEFAULT_PRECISION_CAP = 1 << 16

_T = TypeVar("_T")


def escalate(
    attempt: Callable[[int], _T | None],
    *,
    start: int = MIN_PRECISION,
    cap: int = DEFAULT_PRECISION_CAP,
    what: str = "certified decision",
) -> _T:
    """Run ``attempt`` at doubling precisions until it returns a result.

    ``attempt(prec)`` returns None when the enclosure at ``prec`` bits is too
    wide to decide.  Raises PrecisionError once ``cap`` bits are exceeded,
    and ValueError for a cap below MIN_PRECISION.
    """
    if cap < MIN_PRECISION:
        raise ValueError(f"precision cap {cap} below minimum {MIN_PRECISION}")
    prec = max(MIN_PRECISION, start)
    while prec <= cap:
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
    raise PrecisionError(f"{what} still ambiguous at cap {cap} bits")


def _atanh_floor(a: int, b: int, bits: int) -> tuple[int, int]:
    """Integers (s, n) with s <= 2^bits * atanh(a/b) < s + n, for 0 <= a/b <= 1/3.

    With x = a/b and u_j = 2^bits * x^(2j+1), the series
    atanh(x) = sum_j x^(2j+1) / (2j+1) is summed in fixed point:
    p_0 = floor(2^bits * a / b), p_(j+1) = floor(p_j * a^2 / b^2), and the
    j-th term is t_j = floor(p_j / (2j+1)), until p_J = 0.

    Per-term rounding: u_j - 9/8 < p_j <= u_j.  For j = 0 the floor loses
    less than 1; if u_j - c < p_j <= u_j, then p_(j+1) <= u_j x^2 = u_(j+1)
    and p_(j+1) > (u_j - c) x^2 - 1 >= u_(j+1) - (c/9 + 1), and c = 9/8
    reproduces itself.  So t_j <= u_j / (2j+1), and t_j falls short of it
    by less than 1 for j = 0 and by less than 1 + (9/8)/3 < 2 for j >= 1.

    Truncation: p_J = 0 means u_J < 9/8, and the dropped tail is
    sum_(j>=J) u_j / (2j+1) <= u_J * sum_i x^(2i) = u_J / (1 - x^2)
    < (9/8) * (9/8) < 2.

    Hence 2^bits * atanh(x) lies in [s, s + 2J + 2) with s = sum t_j.
    """
    a2, b2 = a * a, b * b
    p = (a << bits) // b
    s = 0
    k = 1  # 2j + 1
    while p:
        s += p // k
        p = p * a2 // b2
        k += 2
    return s, k + 1  # k + 1 = 2J + 2


@lru_cache(maxsize=32)
def _log2_log3(bits: int) -> tuple[int, int, int, int]:
    """(lo2, hi2, lo3, hi3) with lo2 <= 2^bits * log 2 <= hi2, and the same
    for log 3, from log 2 = 2 atanh(1/3) and log 3 = log 2 + 2 atanh(1/5)."""
    s3, n3 = _atanh_floor(1, 3, bits)
    s5, n5 = _atanh_floor(1, 5, bits)
    lo2, hi2 = 2 * s3, 2 * (s3 + n3)
    return lo2, hi2, lo2 + 2 * s5, hi2 + 2 * (s5 + n5)


def _working_bits(prec: int, e: int) -> int:
    """Series precision for a ``prec``-bit result of log3(2^e * r').

    In units of 2^-bits, each atanh sum is off by less than 2J + 2 <= bits,
    so e log 2 + 2 atanh(x) is off by at most 2(|e| + 1) bits and log 3 by
    4 bits, and the quotient is known to within 5(|e| + 1) bits.  The
    4 + bit_length((|e| + 1) prec) guard bits make that less than 2^-prec
    whenever |e| < 2^prec, since then bits <= 3 prec.
    """
    return prec + ((abs(e) + 1) * prec).bit_length() + 4


def alpha0_bounds(prec: int) -> tuple[Fraction, Fraction]:
    """Exact bounds lo < log3(2) = log 2 / log 3 < hi at ``prec`` bits.

    log 2 in [1/2, 1) and log 3 in [1, 2) are each rounded outward to
    ``prec`` significant bits, and their quotient, in [1/2, 1), is rounded
    outward to ``prec`` bits again: the three roundings of ``prec``-bit
    interval arithmetic.  They leave lo and hi at most 3 * 2^-prec apart,
    which sets how many continued-fraction quotients (78 at 256 bits) and
    which power comparisons each precision of an escalation certifies.
    """
    bits = _working_bits(prec, 1)
    lo2, hi2, lo3, hi3 = _log2_log3(bits)
    shift = bits - prec
    lo2, hi2 = lo2 >> shift, -(-hi2 >> shift)  # units of 2^-prec
    lo3, hi3 = lo3 >> (shift + 1), -(-hi3 >> (shift + 1))  # units of 2^(1-prec)
    lo = (lo2 << (prec - 1)) // hi3
    hi = -(-(hi2 << (prec - 1)) // lo3)
    return Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)


def log3_bounds(value: int | Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Exact bounds lo <= log3(value) <= hi for a positive exact rational.

    The bounds are the single point (e, e) when value = 3^e for an integer
    e.  Otherwise value = 2^e * n/d with n/d in [1, 2), so
    log(value) = e log 2 + 2 atanh((n - d)/(n + d)) with (n - d)/(n + d) in
    [0, 1/3); the series enclosures are divided by that of log 3 and the
    quotient rounded outward to multiples of 2^-prec, at most 3 * 2^-prec
    apart.
    """
    fr = Fraction(value)
    if fr <= 0:
        raise ValueError("log of non-positive value")
    n, d = fr.numerator, fr.denominator
    if min(n, d) == 1:
        e = math_floor_log3(n * d) * (1 if d == 1 else -1)
        if Fraction(3) ** e == fr:
            return Fraction(e), Fraction(e)
    e = n.bit_length() - d.bit_length()
    n, d = (n, d << e) if e >= 0 else (n << -e, d)
    if n < d:
        n, e = n << 1, e - 1
    bits = _working_bits(prec, e)
    lo2, hi2, lo3, hi3 = _log2_log3(bits)
    s, err = _atanh_floor(n - d, n + d, bits)
    if e < 0:
        lo2, hi2 = hi2, lo2
    num_lo, num_hi = e * lo2 + 2 * s, e * hi2 + 2 * (s + err)
    lo = (num_lo << prec) // (hi3 if num_lo >= 0 else lo3)
    hi = -(-(num_hi << prec) // (lo3 if num_hi >= 0 else hi3))
    return Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)


def certified_less_than(
    make: Callable[[int], tuple[Fraction, Fraction]],
    threshold: Fraction,
    *,
    start: int = MIN_PRECISION,
    cap: int = DEFAULT_PRECISION_CAP,
    what: str = "comparison",
) -> bool:
    """Decide x < threshold for a real x that never ties with it, given
    exact bounds ``make(prec)`` = (lo, hi) of x at ``prec`` bits."""

    def attempt(prec: int) -> bool | None:
        lo, hi = make(prec)
        if hi < threshold:
            return True
        if lo > threshold:
            return False
        return None

    return escalate(attempt, start=start, cap=cap, what=what)


def certified_floor(
    make: Callable[[int], tuple[Fraction, Fraction]],
    *,
    start: int = MIN_PRECISION,
    cap: int = DEFAULT_PRECISION_CAP,
    what: str = "floor",
) -> int:
    """Floor of a provably non-integral real, given exact bounds
    ``make(prec)`` = (lo, hi) of it at ``prec`` bits."""

    def attempt(prec: int) -> int | None:
        lo, hi = make(prec)
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        return flo if flo == fhi else None

    return escalate(attempt, start=start, cap=cap, what=what)


def compare_power3_power2(p: int, q: int, *, cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Exact sign of 3^p - 2^q.

    3^p - 2^q has the sign of p - q*log3(2), which is nonzero for every
    (p, q) != (0, 0) since no power of 3 equals a power of 2.  Given an
    enclosure lo < log3(2) < hi, the exact tests p > q*hi and p < q*lo
    (bounds swapped for negative q) decide it; precision doubles until one
    of them holds.
    """
    if p == 0 and q == 0:
        return 0

    def attempt(prec: int) -> int | None:
        lo, hi = alpha0_bounds(prec)
        if q < 0:
            lo, hi = hi, lo
        if p * hi.denominator > q * hi.numerator:
            return 1
        if p * lo.denominator < q * lo.numerator:
            return -1
        return None

    return escalate(attempt, cap=cap, what=f"sign(3^{p} - 2^{q})")


def math_floor_log3(x: int) -> int:
    """Exact floor(log3(x)) for a positive integer, by integer comparison."""
    if x <= 0:
        raise ValueError("positive integer required")
    if x < 3:
        return 0
    # float estimate, then correct by exact comparisons in both directions
    if x.bit_length() < 500_000:
        e = max(0, int(math.log(x, 3)) - 2)
    else:
        e = max(0, int(x.bit_length() * 0.63092975) - 4)
    p = 3**e
    while p > x:
        p //= 3
        e -= 1
    while p * 3 <= x:
        p *= 3
        e += 1
    return e


# Mantissa width of the power brackets.  A rounding step loses at most a
# factor 1 + 2^-127, so a 10^5-th power is still bracketed to within about
# 2^-108 and only near-ties reach the literal powers.
_BRACKET_BITS = 128


def _round(m: int, x: int, up: bool) -> tuple[int, int]:
    """m * 2^x rounded down (or up) to a mantissa of at most _BRACKET_BITS bits."""
    s = m.bit_length() - _BRACKET_BITS
    if s <= 0:
        return m, x
    q = m >> s
    if up and q << s != m:
        q += 1
    return q, x + s


def _power_bracket(factors, up: bool) -> tuple[int, int]:
    """(m, x) with m * 2^x <= prod b^f (up=False) or >= it (up=True).

    Square-and-multiply on every factor, rounding each product in the one
    direction; all terms are nonnegative, so the rounded value stays on its
    side of the exact product.
    """
    m, x = 1, 0
    for b, f in factors:
        pm, px = 1, 0
        for bit in bin(f)[2:]:
            pm, px = _round(pm * pm, 2 * px, up)
            if bit == "1":
                pm, px = _round(pm * b, px, up)
        m, x = _round(m * pm, x + px, up)
    return m, x


def _dyadic_le(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Exact m1 * 2^x1 <= m2 * 2^x2 for nonnegative mantissas."""
    (m1, x1), (m2, x2) = a, b
    if m1 == 0 or m2 == 0:
        return m1 == 0
    l1, l2 = m1.bit_length() + x1, m2.bit_length() + x2
    if l1 != l2:
        return l1 < l2
    # equal bit lengths: the exponents differ by less than a mantissa width
    if x1 >= x2:
        return m1 << (x1 - x2) <= m2
    return m1 <= m2 << (x2 - x1)


def power_le(a: int, e: int, *factors: tuple[int, int]) -> bool:
    """Exact test of a^e <= prod b^f over the (b, f) pairs in ``factors``.

    Every base and exponent must be nonnegative (0^0 = 1).  The two sides
    are first compared through brackets lo <= value <= hi built by
    ``_power_bracket``: lhs_hi <= rhs_lo decides True and lhs_lo > rhs_hi
    decides False.  Only when the brackets overlap, as on a tie, are the
    literal powers built.
    """
    if min(a, e, *(v for pair in factors for v in pair)) < 0:
        raise ValueError("bases and exponents must be nonnegative")
    lhs = ((a, e),)
    if _dyadic_le(_power_bracket(lhs, up=True), _power_bracket(factors, up=False)):
        return True
    if not _dyadic_le(_power_bracket(lhs, up=False), _power_bracket(factors, up=True)):
        return False
    return a**e <= math.prod(b**f for b, f in factors)
