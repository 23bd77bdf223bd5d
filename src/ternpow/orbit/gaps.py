"""Three-distance spectra of the rotation orbit x + j*theta mod 1.

``alpha0_bounds(p)`` puts theta = log3(2) strictly between T_lo / 2^p and
T_hi / 2^p.  Each closed-form arc length is |a*theta - b| for integers a, b,
linear in theta while its sign is fixed, so its exact values at the two
endpoints enclose it; p doubles until every sign is fixed and the arcs'
enclosures are disjoint.  The brute-force sweep rotates by exactly
T_lo / 2^p, so its gaps are exact dyadics that must equal the closed form
at T_lo.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from mpmath import mp

from ..errors import InsufficientDepth
from ..precision import DEFAULT_PRECISION_CAP, MIN_PRECISION, alpha0_bounds, escalate
from .cf import CFExpansion

# the largest N the CLI checks by brute force: the sweep holds all N + 1
# points, and 10^5 of them take about 12 s
MAX_BRUTE_N = 100_000
# the largest N the CLI accepts: 8192 bits certify its arcs, and their 2467-digit
# denominators print within Python's 4300-digit int-to-str limit (from about
# N = 10^1233 the arcs need 16384 bits, which would not)
MAX_GAP_N = 10**1000
# bits above p that keep x + i*theta exact in the sweep for i < 2^64
_GUARD_BITS = 64


def _check_theta(theta) -> None:
    """Only a continued-fraction-backed irrational is accepted; the
    expansion produced by this package is always log3(2)."""
    if not isinstance(theta, CFExpansion):
        raise ValueError(
            "theta must be a CFExpansion-backed irrational; rationals have "
            "eventually periodic orbits and no three-gap structure"
        )


@dataclass(frozen=True)
class GapSpectrum:
    """At most three arc lengths with multiplicities for N+1 orbit points.

    items are (length, multiplicity) pairs in ascending length, zero
    multiplicities dropped, each length exact for the rotation by T_lo / 2^prec.
    Formula-derived spectra also carry the ladder data (n, j, k), ``bounds``,
    the (lo, hi) enclosure at theta = log3(2) of each item's length, and
    ``labeled``, those of L1, L2 and L3 = L1 + L2 with their multiplicities.
    """

    N: int
    prec: int
    items: tuple
    n: int | None = None
    j: int | None = None
    k: int | None = None
    bounds: tuple | None = None
    labeled: tuple | None = None  # (((lo, hi), m1), ((lo, hi), m2), ((lo, hi), m3))

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("a spectrum needs at least one arc")
        if len(self.items) > 3:
            raise ValueError("more than three distinct arc lengths")
        if sum(m for _, m in self.items) != self.N + 1:
            raise ValueError("multiplicities must sum to N+1")
        if any(m <= 0 for _, m in self.items):
            raise ValueError("zero multiplicities must be dropped")
        lengths = self.lengths
        if any(a >= b for a, b in zip(lengths, lengths[1:])):
            raise ValueError("arc lengths must be distinct and ascending")
        if len(lengths) == 3 and lengths[0] + lengths[1] != lengths[2]:
            raise ValueError("largest arc must be the sum of the others")

    @property
    def lengths(self) -> tuple:
        return tuple(length for length, _ in self.items)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.items)

    def matches(self, other: "GapSpectrum") -> bool:
        """Exact equality of the arcs of one dyadic rotation."""
        return (self.prec, self.items) == (other.prec, other.items)


def _spectrum_at(cf: CFExpansion, N: int, prec: int) -> GapSpectrum | None:
    """The closed-form spectrum certified at ``prec`` bits, or None when a
    sign changes inside the theta bracket or two enclosures overlap."""
    if N < 1:
        raise ValueError("N must be >= 1")
    depth = cf.depth
    if N >= cf.q(depth) + cf.q(depth - 1):
        raise InsufficientDepth(f"N={N} needs convergents beyond depth {depth}")
    n = 0
    while not (cf.q(n) + cf.q(n - 1) <= N < cf.q(n + 1) + cf.q(n)):
        n += 1
    qn, qn1 = cf.q(n), cf.q(n - 1)
    j1 = (N - qn1) // qn  # this is j+1
    k = N - j1 * qn - qn1
    if not (1 <= j1 and 0 <= k < qn):
        raise AssertionError("ladder decomposition out of range")

    scale = 1 << prec
    pn, pn1 = cf.p(n) * scale, cf.p(n - 1) * scale

    def deltas(theta: Fraction) -> tuple[int, int]:
        # delta_n and delta_{n-1} + (j+1) delta_n in units of 2^-prec,
        # where delta_m = q_m theta - p_m
        t = int(theta * scale)
        d = qn * t - pn
        return d, qn1 * t - pn1 + j1 * d

    ends = [deltas(theta) for theta in alpha0_bounds(prec)]
    (d_lo, e_lo), (d_hi, e_hi) = ends
    if d_lo * d_hi <= 0 or e_lo * e_hi <= 0:
        return None
    at_lo, at_hi = ((abs(d), abs(e), abs(d) + abs(e)) for d, e in ends)
    bounds = [
        (Fraction(min(a, b), scale), Fraction(max(a, b), scale)) for a, b in zip(at_lo, at_hi)
    ]
    mults = ((j1 - 1) * qn + qn1 + k + 1, k + 1, qn - (k + 1))
    # ascending by enclosure; disjoint enclosures also order the lengths at T_lo
    kept = sorted((b, Fraction(a, scale), m) for a, b, m in zip(at_lo, bounds, mults) if m > 0)
    if any(low[0][1] >= high[0][0] for low, high in zip(kept, kept[1:])):
        return None
    return GapSpectrum(
        N=N,
        prec=prec,
        items=tuple((length, m) for _, length, m in kept),
        n=n,
        j=j1 - 1,
        k=k,
        bounds=tuple(b for b, _, _ in kept),
        labeled=tuple(zip(bounds, mults)),
    )


def three_gap(cf: CFExpansion, x, N: int, *, cap: int = DEFAULT_PRECISION_CAP) -> GapSpectrum:
    """Closed-form spectrum via the convergent ladder of theta.

    N decomposes uniquely as (j+1) q_n + q_{n-1} + k with 0 <= k < q_n; the
    arc lengths are |delta_n|, |delta_{n-1} + (j+1) delta_n| and their sum,
    where delta_m = q_m theta - p_m (delta_{-1} = -1 comes out of the same
    formula).  The offset x only rotates the whole configuration, so the
    spectrum does not depend on it.
    """
    del x  # rigid rotation: arcs are offset-invariant
    _check_theta(cf)
    return escalate(
        lambda prec: _spectrum_at(cf, N, prec), cap=cap, what=f"three-gap spectrum at N={N}"
    )


class BruteRotationGaps:
    """Incrementally sorted orbit points with their circle gaps.

    The rotation is by exactly T_lo / 2^prec from the offset reduced mod 1
    and rounded down to the 2^-prec grid, so at prec + 64 bits every point
    and every gap is an exact dyadic.  advance() inserts the next point and
    splices the sorted gap list in place; spectrum() merges equal gaps, and
    matches_formula() counts the gaps equal to each length of a closed-form
    spectrum, which keeps a full sweep over N near-linear.
    """

    def __init__(self, theta, x, prec: int = MIN_PRECISION):
        self.prec = prec
        _check_theta(theta)
        t_lo = int(alpha0_bounds(prec)[0] * (1 << prec))
        x_grid = math.floor(Fraction(x) % 1 * (1 << prec))
        self.theta = mp.ldexp(t_lo, -prec)  # ldexp converts ints losslessly
        self.x = mp.ldexp(x_grid, -prec)
        self.points = [self.x]
        self._gaps = [mp.mpf(1)]
        self.count = 1  # points inserted so far (N = count - 1)

    def _drop_gap(self, value) -> None:
        i = bisect.bisect_left(self._gaps, value)
        if i >= len(self._gaps) or self._gaps[i] != value:
            raise AssertionError("gap bookkeeping lost a value")
        self._gaps.pop(i)

    def advance(self) -> int:
        pts = self.points
        with mp.workprec(self.prec + _GUARD_BITS):
            p = mp.frac(self.x + self.count * self.theta)
            i = bisect.bisect_left(pts, p)
            if i == 0 or i == len(pts):
                self._drop_gap(1 - pts[-1] + pts[0])
                if i == 0:
                    added = (pts[0] - p, 1 - pts[-1] + p)
                else:
                    added = (p - pts[-1], 1 - p + pts[0])
            else:
                self._drop_gap(pts[i] - pts[i - 1])
                added = (p - pts[i - 1], pts[i] - p)
        for val in added:
            bisect.insort(self._gaps, val)
        pts.insert(i, p)
        self.count += 1
        return self.count - 1

    def gaps(self) -> tuple:
        return tuple(self._gaps)

    def spectrum(self) -> GapSpectrum:
        N = self.count - 1
        if N < 1:
            raise ValueError("need at least two points")
        scale = 1 << self.prec
        items = tuple(
            (Fraction(int(mp.ldexp(g, self.prec)), scale), sum(1 for _ in run))
            for g, run in groupby(self._gaps)
        )
        return GapSpectrum(N=N, prec=self.prec, items=items)

    def matches_formula(self, spec: GapSpectrum) -> bool:
        """Every current gap equals a length of the spectrum, with the right
        count per length."""
        if spec.prec != self.prec or spec.N + 1 != len(self._gaps):
            return False
        for length, m in spec.items:
            g = mp.ldexp(length.numerator, 1 - length.denominator.bit_length())
            if bisect.bisect_right(self._gaps, g) - bisect.bisect_left(self._gaps, g) != m:
                return False
        return True


def three_gap_bruteforce(theta, x, N: int, prec: int = MIN_PRECISION) -> GapSpectrum:
    """Sort the N+1 points and measure the arcs directly."""
    if N < 1:
        raise ValueError("N must be >= 1")
    sweep = BruteRotationGaps(theta, x, prec)
    for _ in range(N):
        sweep.advance()
    return sweep.spectrum()


def special_two_length(cf: CFExpansion, n: int, *, cap: int = DEFAULT_PRECISION_CAP) -> bool:
    """At N = q_{n+1} - 1 the spectrum has two arcs with L2 < L1 < 2 L2.

    The enclosures decide the last inequality; the precision doubles while
    they straddle it.
    """
    N = cf.q(n + 1) - 1
    if N < 1:
        raise ValueError(f"q_{n+1} - 1 = {N} is not a valid point count")

    def attempt(prec: int) -> bool | None:
        spec = _spectrum_at(cf, N, prec)
        if spec is None:
            return None
        if len(spec.items) != 2:
            return False
        (small_lo, small_hi), (big_lo, big_hi) = spec.bounds
        if big_hi < 2 * small_lo:
            return True
        if big_lo > 2 * small_hi:
            return False
        return None

    return escalate(attempt, cap=cap, what=f"two-length case at n={n}")
