"""Three-distance spectra of the rotation orbit x + j*theta mod 1.

Both the closed-form path and the brute-force path evaluate against the same
dyadic rounding of theta at the requested precision, and the working
precision is padded so every intermediate is exact.  Agreement between the
two is therefore a structural check, not a floating-point accident.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from ..errors import InsufficientDepth, PrecisionError
from .cf import CFExpansion

DEFAULT_GAP_PRECISION = 256
# the largest N the CLI checks by brute force: the sweep holds all N + 1
# points, and 10^5 of them at the default precision take about 16 s
MAX_BRUTE_N = 100_000
_GUARD_BITS = 64


def alpha0_mpf(prec: int):
    """Round-to-nearest float for log 2 / log 3 at ``prec`` bits."""
    with mp.workprec(prec):
        return mp.log(2) / mp.log(3)


def ulp(x, prec: int):
    """Unit in the last place of a nonzero float at ``prec`` bits."""
    m = abs(mp.mpf(x))
    if m == 0:
        raise ValueError("ulp of zero")
    return mp.mpf(2) ** (mp.mag(m) - prec)


def _theta_value(theta, prec: int):
    """Dyadic theta shared by both computation paths.

    Only a continued-fraction-backed irrational is accepted; the expansion
    produced by this package is always log3(2).
    """
    if isinstance(theta, CFExpansion):
        return alpha0_mpf(prec)
    raise ValueError(
        "theta must be a CFExpansion-backed irrational; rationals have "
        "eventually periodic orbits and no three-gap structure"
    )


@dataclass(frozen=True)
class GapSpectrum:
    """At most three arc lengths with multiplicities for N+1 orbit points.

    items are (length, multiplicity) pairs sorted by length, zero
    multiplicities dropped.  Formula-derived spectra also carry the ladder
    data (n, j, k) and the labeled lengths L1, L2, L3 = L1 + L2.
    """

    N: int
    prec: int
    items: tuple
    n: int | None = None
    j: int | None = None
    k: int | None = None
    labeled: tuple | None = None  # ((L1, m1), (L2, m2), (L3, m3))

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("a spectrum needs at least one arc")
        if len(self.items) > 3:
            raise ValueError("more than three distinct arc lengths")
        if sum(m for _, m in self.items) != self.N + 1:
            raise ValueError("multiplicities must sum to N+1")
        if any(m <= 0 for _, m in self.items):
            raise ValueError("zero multiplicities must be dropped")
        if len(self.items) == 3:
            a, b, c = (length for length, _ in self.items)
            with mp.workprec(self.prec + _GUARD_BITS):
                if abs((a + b) - c) > 8 * ulp(c, self.prec):
                    raise ValueError("largest arc must be the sum of the others")

    @property
    def lengths(self) -> tuple:
        return tuple(length for length, _ in self.items)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.items)

    def matches(self, other: "GapSpectrum", tol_ulps: int = 3) -> bool:
        """Equality of spectra within tol_ulps of each arc length."""
        if self.multiplicities != other.multiplicities:
            return False
        return all(
            abs(a - b) <= tol_ulps * ulp(a, self.prec)
            for (a, _), (b, _) in zip(self.items, other.items)
        )


def _assemble(N: int, prec: int, triples, n=None, j=None, k=None, labeled=None):
    # merge equal lengths, drop zero multiplicities, sort ascending
    kept = sorted((L, m) for L, m in triples if m > 0)
    merged: list[list] = []
    for L, m in kept:
        if merged and L == merged[-1][0]:
            merged[-1][1] += m
        else:
            merged.append([L, m])
    return GapSpectrum(
        N=N,
        prec=prec,
        items=tuple((L, m) for L, m in merged),
        n=n,
        j=j,
        k=k,
        labeled=labeled,
    )


def three_gap(cf: CFExpansion, x, N: int, prec: int = DEFAULT_GAP_PRECISION) -> GapSpectrum:
    """Closed-form spectrum via the convergent ladder of theta.

    N decomposes uniquely as (j+1) q_n + q_{n-1} + k with 0 <= k < q_n; the
    arc lengths are |delta_n|, |delta_{n-1} + (j+1) delta_n| and their sum,
    where delta_m = q_m theta - p_m (delta_{-1} = -1 comes out of the same
    formula).  The offset x only rotates the whole configuration, so the
    spectrum does not depend on it.
    """
    del x  # rigid rotation: arcs are offset-invariant
    if N < 1:
        raise ValueError("N must be >= 1")
    theta = _theta_value(cf, prec)
    depth = cf.depth
    if N >= cf.q(depth) + cf.q(depth - 1):
        raise InsufficientDepth(
            f"N={N} needs convergents beyond depth {depth}"
        )
    n = 0
    while not (cf.q(n) + cf.q(n - 1) <= N < cf.q(n + 1) + cf.q(n)):
        n += 1
    qn, qn1 = cf.q(n), cf.q(n - 1)
    j1 = (N - qn1) // qn  # this is j+1
    k = N - j1 * qn - qn1
    if not (1 <= j1 and 0 <= k < qn):
        raise AssertionError("ladder decomposition out of range")

    with mp.workprec(prec + _GUARD_BITS):
        delta_n = qn * theta - cf.p(n)
        delta_n1 = qn1 * theta - cf.p(n - 1)
        L1 = abs(delta_n)
        L2 = abs(delta_n1 + j1 * delta_n)
        L3 = L1 + L2
    m1 = (j1 - 1) * qn + qn1 + k + 1
    m2 = k + 1
    m3 = qn - (k + 1)
    labeled = ((L1, m1), (L2, m2), (L3, m3))
    return _assemble(
        N, prec, [(L1, m1), (L2, m2), (L3, m3)], n=n, j=j1 - 1, k=k, labeled=labeled
    )


class BruteRotationGaps:
    """Incrementally sorted orbit points with their circle gaps.

    advance() inserts the next point and splices the sorted gap list in
    place (gap values recompute bit-identically from the same operands, so
    removal-by-value is safe).  spectrum() clusters the current gaps;
    matches_formula() checks a closed-form spectrum by counting gaps inside
    tolerance windows, which keeps a full sweep over N near-linear.
    """

    def __init__(self, theta, x, prec: int = DEFAULT_GAP_PRECISION):
        self.prec = prec
        self.theta = _theta_value(theta, prec)
        with mp.workprec(prec + _GUARD_BITS):
            if isinstance(x, Fraction):
                x_in = mp.mpf(x.numerator) / x.denominator
            else:
                x_in = mp.mpf(str(x))
            self.x = mp.frac(x_in)
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
        gaps = self._gaps
        if gaps[0] < mp.mpf(2) ** (-self.prec + 6):
            raise PrecisionError(
                f"adjacent points separated by {gaps[0]} at {self.prec} bits"
            )
        clusters: list[list] = []
        for g in gaps:
            if clusters and g - clusters[-1][0] <= 4 * ulp(g, self.prec):
                clusters[-1][1] += 1
            else:
                clusters.append([g, 1])
        return _assemble(N, self.prec, [(g, m) for g, m in clusters])

    def matches_formula(self, spec: GapSpectrum, tol_ulps: int = 3) -> bool:
        """All current gaps fall within tol_ulps of the spectrum's lengths,
        with the right count per length."""
        total = 0
        with mp.workprec(self.prec + _GUARD_BITS):
            for L, m in spec.items:
                tol = tol_ulps * ulp(L, self.prec)
                lo = bisect.bisect_left(self._gaps, L - tol)
                hi = bisect.bisect_right(self._gaps, L + tol)
                if hi - lo != m:
                    return False
                total += m
        return total == len(self._gaps)


def three_gap_bruteforce(
    theta, x, N: int, prec: int = DEFAULT_GAP_PRECISION
) -> GapSpectrum:
    """Sort the N+1 points and measure the arcs directly."""
    if N < 1:
        raise ValueError("N must be >= 1")
    sweep = BruteRotationGaps(theta, x, prec)
    for _ in range(N):
        sweep.advance()
    return sweep.spectrum()


def special_two_length(cf: CFExpansion, n: int, prec: int = DEFAULT_GAP_PRECISION) -> bool:
    """At N = q_{n+1} - 1 the spectrum has two arcs with L2 < L1 < 2 L2."""
    N = cf.q(n + 1) - 1
    if N < 1:
        raise ValueError(f"q_{n+1} - 1 = {N} is not a valid point count")
    spec = three_gap(cf, 0, N, prec)
    if len(spec.items) != 2:
        return False
    (l_small, _), (l_big, _) = spec.items
    return l_small < l_big < 2 * l_small
