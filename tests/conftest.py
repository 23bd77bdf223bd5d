"""Shared fixtures, helpers and hypothesis settings for the suite."""

from __future__ import annotations

from typing import Callable

import pytest
from hypothesis import HealthCheck, settings

from ternpow import cf_log3_2
from ternpow.precision import escalate, iv_endpoints

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
