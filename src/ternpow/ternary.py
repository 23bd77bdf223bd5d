"""Exact base-3 arithmetic on plain integers.

A ternary number is a Python ``int``.  ``int_to_digits`` lists its digits
least-significant first (zero has the empty vector and omits every digit);
``leading_digits`` renders the top digits most-significant first over the
alphabet {0,1,2} with no separators, e.g. 256 -> "100111".  Dyadic
rationals carry the spacings lambda, and the omission walks step and count
through the integers whose expansion avoids one digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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


def digits_to_int(digits: Iterable[int]) -> int:
    value = 0
    for d in reversed(tuple(digits)):
        value = value * 3 + d
    return value


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


def next_omitting(x: int, forbidden: int) -> int:
    """Smallest y >= x whose ternary expansion omits ``forbidden``.

    Walks the digits from the most-significant end; at the first forbidden
    digit the number must grow there or to the left, so bump the lowest
    prefix position that can still increase and fill the rest with the
    smallest allowed digit.
    """
    if forbidden not in _VALID:
        raise ValueError(f"not a ternary digit: {forbidden!r}")
    if x < 0:
        raise ValueError("negative value")
    low = 0 if forbidden != 0 else 1
    ds = list(int_to_digits(x))[::-1]  # most-significant first
    first = next((i for i, d in enumerate(ds) if d == forbidden), None)
    if first is None:
        return x
    i = first
    while True:
        nxt = ds[i] + 1
        if nxt == forbidden:
            nxt += 1
        if nxt <= 2:
            out = ds[:i] + [nxt] + [low] * (len(ds) - i - 1)
            return digits_to_int(reversed(out))
        if i == 0:
            lead = 1 if forbidden != 1 else 2
            return digits_to_int(reversed([lead] + [low] * len(ds)))
        i -= 1


def prev_omitting(x: int, forbidden: int) -> int:
    """Largest 0 <= y <= x whose ternary expansion omits ``forbidden``.

    Mirror of next_omitting: at the first forbidden digit the number must
    shrink, so lower the deepest prefix position that can still decrease
    and fill the rest with the largest allowed digit.  Zero omits every
    digit, so a result always exists.
    """
    if forbidden not in _VALID:
        raise ValueError(f"not a ternary digit: {forbidden!r}")
    if x < 0:
        raise ValueError("negative value")
    high = 2 if forbidden != 2 else 1
    ds = list(int_to_digits(x))[::-1]
    first = next((i for i, d in enumerate(ds) if d == forbidden), None)
    if first is None:
        return x
    i = first
    while True:
        prv = ds[i] - 1
        if prv == forbidden:
            prv -= 1
        if prv >= 0:
            out = ds[:i] + [prv] + [high] * (len(ds) - i - 1)
            return digits_to_int(reversed(out))
        if i == 0:
            # every admissible value needs fewer digits
            return digits_to_int([high] * (len(ds) - 1))
        i -= 1


def count_omitting_upto(x: int, forbidden: int) -> int:
    """Number of integers in [0, x] whose ternary expansion omits ``forbidden``.

    Digit walk from the most-significant end: at each position, count the
    completions below the current digit, then continue only while the prefix
    itself stays admissible.  Zero's expansion is empty and always counts.
    """
    if forbidden not in _VALID:
        raise ValueError(f"not a ternary digit: {forbidden!r}")
    if x < 0:
        return 0
    ds = list(int_to_digits(x))[::-1]
    n = len(ds)
    if n == 0:
        return 1
    allowed = [d for d in _VALID if d != forbidden]
    lead = [d for d in allowed if d != 0]
    # 1 for zero, plus all shorter admissible expansions
    total = 1 + sum(len(lead) * len(allowed) ** (length - 1) for length in range(1, n))
    for i, d in enumerate(ds):
        pool = lead if i == 0 else allowed
        total += sum(1 for a in pool if a < d) * len(allowed) ** (n - 1 - i)
        if d == forbidden or (i == 0 and d == 0):
            return total
    return total + 1
