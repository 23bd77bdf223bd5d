"""Exact base-3 arithmetic on plain integers.

A ternary number is a Python ``int``.  ``int_to_digits`` lists its digits
least-significant first (zero has the empty vector and omits every digit);
``leading_digits`` renders the top digits most-significant first over the
alphabet {0,1,2} with no separators, e.g. 256 -> "100111".  Dyadic
rationals carry the spacings lambda.

The integers free of the digit 2 are the binary numbers read in base 3:
``nth_free(t)`` reads the binary digits of t as ternary digits, an
increasing bijection from the naturals onto those integers, and
``count_free_upto`` is its rank.  Doubling them gives the integers free of
the digit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientDigits
from .precision import math_floor_log3

_VALID = (0, 1, 2)


def int_to_digits(n: int) -> tuple[int, ...]:
    """Base-3 digits of a nonnegative integer, least-significant first."""
    if n < 0:
        raise ValueError("negative value has no ternary digit vector")
    out: list[int] = []
    while n:
        n, d = divmod(n, 3)
        out.append(d)
    return tuple(out)


def int_omits_digit(n: int, digit: int) -> bool:
    """Whether the ternary expansion of n >= 0 omits ``digit``.

    Scans from the least-significant end and stops at the first hit, so the
    expected cost on random input is O(1) digits.  Zero omits every digit.
    """
    if digit not in _VALID:
        raise ValueError(f"not a ternary digit: {digit!r}")
    if n < 0:
        raise ValueError("negative value")
    while n:
        n, d = divmod(n, 3)
        if d == digit:
            return False
    return True


def nth_free(t: int) -> int:
    """The t-th (from 0) integer whose ternary digits all lie in {0, 1}."""
    return int(f"{t:b}", 3)


def count_free_upto(x: int) -> int:
    """Number of integers in [0, x] whose ternary expansion omits 2.

    The largest such integer <= x keeps the digits of x above its first 2
    and has 1 there and everywhere below; its rank, read in binary, plus
    one for zero is the count.
    """
    if x < 0:
        return 0
    msf = "".join(str(d) for d in reversed(int_to_digits(x)))
    head, two, _ = msf.partition("2")
    if two:
        msf = head.ljust(len(msf), "1")
    return int(msf or "0", 2) + 1


def leading_digits(n: int, k: int) -> str:
    """The k most-significant ternary digits of n >= 0 as a string.

    Raises InsufficientDigits when n has fewer than k digits (zero has none).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if n < 0:
        raise ValueError("negative value")
    length = math_floor_log3(n) + 1 if n else 0
    if length < k:
        raise InsufficientDigits(f"value has {length} digits, need {k}")
    top = n // 3 ** (length - k)
    return "".join(str(d) for d in reversed(int_to_digits(top)))


@dataclass(frozen=True)
class DyadicRational:
    """A positive rational of the form numerator / 2^exponent.

    Canonical: numerator odd, or exponent zero.  These are the spacings
    lambda for which floor(lambda * 2^n) stays exactly computable.
    """

    numerator: int
    exponent: int

    def __post_init__(self):
        if self.numerator <= 0:
            raise ValueError("numerator must be positive")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if self.exponent and self.numerator % 2 == 0:
            raise ValueError("not canonical: numerator even with exponent > 0")

    @classmethod
    def from_pair(cls, numerator: int, exponent: int) -> "DyadicRational":
        """Canonicalize numerator / 2^exponent."""
        if numerator <= 0:
            raise ValueError("numerator must be positive")
        while exponent > 0 and numerator % 2 == 0:
            numerator //= 2
            exponent -= 1
        return cls(numerator, exponent)

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        """Parse 'A', 'A/2^s', or 'A/B' with B a power of two."""
        text = text.strip()
        if "/" not in text:
            return cls.from_pair(int(text), 0)
        num_s, den_s = text.split("/", 1)
        num = int(num_s)
        den_s = den_s.strip()
        if den_s.startswith("2^"):
            return cls.from_pair(num, int(den_s[2:]))
        den = int(den_s)
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator must be a power of two: {text!r}")
        return cls.from_pair(num, den.bit_length() - 1)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/2^{self.exponent}"


def floor_times_pow2(lam: DyadicRational, n: int) -> int:
    """floor(lam * 2^n) as a plain integer (pure shifts, no rounding)."""
    t = n - lam.exponent
    return lam.numerator << t if t >= 0 else lam.numerator >> (-t)
