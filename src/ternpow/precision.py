"""Certified real arithmetic for every inexact decision in the package.

Real-valued comparisons (log ratios, fractional parts, window endpoints)
are never decided on bare floats.  An enclosure is a ``(lo, hi)`` pair of
exact Fractions with lo <= x <= hi.  A decision is accepted only when the
pair separates cleanly from the threshold, and otherwise the working
precision doubles up to the ``cap`` argument its caller passes down.
Callers combine pairs in exact rational arithmetic (l * log3(2) - r is
``(l*lo - r, l*hi - r)``), so an escalation loop can only stall on a
genuine tie, which callers rule out arithmetically before asking.

The pairs come from ``alpha0_bounds`` and ``log3_bounds``, which read the
endpoints of mpmath interval logs exactly.  mpmath appears only in this
module and, until the three-gap sweep is made exact, in ``orbit/gaps.py``
and in the CLI's printer for its float arc lengths.

Questions about log3(2) itself, such as which of 3^p and 2^q is larger,
read the exact rational endpoints of a single enclosure lo < log3(2) < hi
and finish in integer arithmetic: no power of 3 or 2 is ever built.

Power-law bounds a^e <= prod b^f, with exponents up to 10^5, are decided
by ``power_le`` on directed-rounding brackets of the two sides; the literal
powers are built only when the brackets overlap.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, TypeVar

from mpmath import iv, mp

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


@contextmanager
def _iv_prec(prec: int):
    """Temporarily set the interval context precision (iv lacks workprec)."""
    saved = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = saved


def _endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an mpmath interval (raw, no re-rounding)."""
    ends = []
    for sign, man, exp, _ in x._mpi_:
        man, exp = int(man), int(exp)  # backend may hand out gmpy2.mpz
        if man == 0 and exp != 0:
            raise ValueError("non-finite value has no rational form")
        value = man * Fraction(2) ** exp
        ends.append(-value if sign else value)
    return ends[0], ends[1]


def _exact_mpf(man: int, shift: int):
    """The exact float man * 2^shift (no rounding; workprec covers man)."""
    with mp.workprec(max(abs(man).bit_length(), 8) + 4):
        return mp.mpf(man) * mp.mpf(2) ** shift


def _fraction_to_iv(fr: Fraction, prec: int):
    """Interval enclosing an exact rational, with outward directed rounding.

    Builds dyadic endpoints by integer shifts so the enclosure never relies
    on a library rounding mode: lo = floor(fr * 2^prec) / 2^prec, hi is the
    matching ceiling.
    """
    num, den = fr.numerator, fr.denominator
    scaled = num << prec
    lo_man = scaled // den  # floor works for either sign
    hi_man = lo_man if lo_man * den == scaled else lo_man + 1
    with _iv_prec(prec + 8):
        return iv.mpf([_exact_mpf(lo_man, -prec), _exact_mpf(hi_man, -prec)])


def alpha0_bounds(prec: int) -> tuple[Fraction, Fraction]:
    """Exact bounds lo < log3(2) = log 2 / log 3 < hi at ``prec`` bits."""
    with _iv_prec(prec):
        return _endpoints(iv.log(2) / iv.log(3))


def log3_bounds(value: int | Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Exact bounds lo <= log3(value) <= hi for a positive exact rational.

    The bounds are the single point (e, e) when value = 3^e for an integer
    e; otherwise they come from a ``prec``-bit interval evaluation.
    """
    fr = Fraction(value)
    if fr <= 0:
        raise ValueError("log of non-positive value")
    n, d = fr.numerator, fr.denominator
    if min(n, d) == 1:
        e = math_floor_log3(n * d) * (1 if d == 1 else -1)
        if Fraction(3) ** e == fr:
            return Fraction(e), Fraction(e)
    with _iv_prec(prec):
        return _endpoints(iv.log(_fraction_to_iv(fr, prec)) / iv.log(3))


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
