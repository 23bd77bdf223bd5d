"""Shared fixtures, helpers and hypothesis settings for the suite."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import HealthCheck, settings
from mpmath import iv

from ternpow import cf_log3_2
from ternpow.precision import escalate

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def cf14():
    return cf_log3_2(14)


@pytest.fixture(scope="session")
def cf40():
    return cf_log3_2(40)


@contextmanager
def iv_prec(prec: int):
    """Temporarily set mpmath's interval precision, for the test oracles."""
    saved = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = saved


def iv_endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an mpmath interval."""
    ends = []
    for sign, man, exp, _ in x._mpi_:
        value = int(man) * Fraction(2) ** int(exp)
        ends.append(-value if sign else value)
    return ends[0], ends[1]


def mp_fraction(x) -> Fraction:
    """The exact rational value of an mpmath float."""
    man, exp = x.man_exp  # the mantissa is unsigned
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def certified_sign(make: Callable[[int], object]) -> int:
    """Sign of a provably nonzero real given by interval evaluations
    ``make(prec)``; the reference the ladder oracles decide with."""

    def attempt(prec: int) -> int | None:
        lo, hi = iv_endpoints(make(prec))
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        return None

    return escalate(attempt, what="sign")
