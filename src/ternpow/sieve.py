"""Residue sieves and counting for digit-2-free values of floor(lambda * 2^n).

The low-order ternary digits of lambda * 2^n are periodic in n: 2 is a
primitive root mod 3^k, so 2^n mod 3^k has period 2 * 3^(k-1).  Exponents can
therefore be filtered through residue classes ("survivors") before any bignum
work, and the survivor count itself is the k-digit surrogate counting
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientDigits
from .precision import math_floor_log3
from .ternary import DyadicRational, int_omits_digit

DEFAULT_RESIDUE_DEPTH = 12


def multiplicative_order_pow2(k: int) -> int:
    """Order of 2 in the units mod 3^k, i.e. 2 * 3^(k-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2 * 3 ** (k - 1)


@dataclass(frozen=True)
class PadicApprox:
    """A 3-adic integer known through its k low-order digits.

    digits are least-significant first and the length IS the precision, so
    zeros in the top positions are meaningful.
    """

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(d in (0, 1, 2) for d in self.digits):
            raise ValueError("digits must lie in {0,1,2}")
        if not self.digits:
            raise ValueError("precision must be >= 1")

    @classmethod
    def from_int(cls, value: int, precision: int) -> "PadicApprox":
        if value < 0:
            raise ValueError("value must be >= 0")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        v = value % 3**precision
        digits = []
        for _ in range(precision):
            v, d = divmod(v, 3)
            digits.append(d)
        return cls(tuple(digits))

    @property
    def precision(self) -> int:
        return len(self.digits)

    def residue(self, k: int | None = None) -> int:
        """Value mod 3^k (k defaults to the full precision)."""
        if k is None:
            k = self.precision
        if k > self.precision:
            raise InsufficientDigits(f"have {self.precision} digits, need {k}")
        out = 0
        for d in reversed(self.digits[:k]):
            out = 3 * out + d
        return out


# survivor chains keyed by the multiplier residue they were built for
_CHAIN_CACHE: dict[int, list[frozenset[int]]] = {}


def survivor_chain(k: int, multiplier: int = 1) -> list[frozenset[int]]:
    """Survivor sets for depths 1..k with a fixed odd multiplier A.

    Depth j holds the residues r mod 2*3^(j-1) such that the j low-order
    ternary digits of A * 2^r all lie in {0,1}.  Each depth refines the
    previous one: a residue lifts three ways and only the new digit (index
    j-1) needs checking.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if multiplier < 1:
        raise ValueError("multiplier must be >= 1")
    chain = _CHAIN_CACHE.setdefault(multiplier, [])
    if not chain:
        base = frozenset(
            r for r in (0, 1) if (multiplier * pow(2, r, 3)) % 3 != 2
        )
        chain.append(base)
    while len(chain) < k:
        j = len(chain) + 1  # depth being built
        prev_mod = multiplicative_order_pow2(j - 1)
        mod3j = 3**j
        scale = 3 ** (j - 1)
        nxt = set()
        for r in chain[-1]:
            for t in range(3):
                n = r + t * prev_mod
                digit = (multiplier * pow(2, n, mod3j)) % mod3j // scale
                if digit != 2:
                    nxt.add(n)
        chain.append(frozenset(nxt))
    return chain[:k]


def residue_survivors(k: int, multiplier: int = 1) -> frozenset[int]:
    """Residues n mod 2*3^(k-1) whose k low ternary digits of A*2^n omit 2."""
    return survivor_chain(k, multiplier)[-1]


def _count_in_range(survivors: frozenset[int], modulus: int, lo: int, hi: int) -> int:
    """#{n in [lo, hi] : n mod modulus in survivors}."""
    if hi < lo:
        return 0
    total = 0
    for r in survivors:
        # smallest n >= lo with n === r
        first = lo + (r - lo) % modulus
        if first <= hi:
            total += (hi - first) // modulus + 1
    return total


def _fully_digit2free_pow2(n: int, known_free: int) -> bool:
    """Exact check that 2^n omits digit 2, scanning upward from the bottom.

    known_free low digits were already vetted by the residue filter, so the
    scan starts with a window just above them and doubles the window until a
    digit 2 appears or the whole number is covered.
    """
    total = math_floor_log3(1 << n) + 1
    window = max(2 * known_free, 16)
    checked = 0
    while checked < total:
        window = min(window, total)
        v = pow(2, n, 3**window)
        v //= 3**checked
        for _ in range(window - checked):
            v, d = divmod(v, 3)
            if d == 2:
                return False
        checked = window
        window *= 2
    return True


def enumerate_digit2free_powers(
    X: int, residue_depth: int = DEFAULT_RESIDUE_DEPTH
) -> list[int]:
    """All exponents 0 <= n <= X for which 2^n omits the ternary digit 2.

    residue_depth = 0 selects the brute scan that checks every 2^n in full
    (the oracle path); positive depth filters candidates through the survivor
    residues first, which is what makes large X cheap.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    if residue_depth < 0:
        raise ValueError("residue_depth must be >= 0")

    if residue_depth == 0:
        return [n for n in range(X + 1) if int_omits_digit(1 << n, 2)]

    depth = residue_depth
    survivors = residue_survivors(depth)
    modulus = multiplicative_order_pow2(depth)
    ordered = sorted(survivors)
    out = []
    base = 0
    while base <= X:
        for r in ordered:
            n = base + r
            if n > X:
                break
            if _fully_digit2free_pow2(n, depth):
                out.append(n)
        base += modulus
    return out


@dataclass(frozen=True)
class SieveReport:
    """Outcome of a sieve run over exponents 0..bound."""

    bound: int
    survivors: tuple[int, ...]
    counts_per_k: tuple[int, ...]
    work_units: int
    narkiewicz_ok: bool

    def __post_init__(self) -> None:
        if any(n < 0 or n > self.bound for n in self.survivors):
            raise ValueError("survivors must lie in [0, bound]")
        for a, b in zip(self.counts_per_k, self.counts_per_k[1:]):
            if b > a:
                raise ValueError("counts per depth must be non-increasing")


def narkiewicz_check(count: int, X: int) -> bool:
    """Exact test of count <= (81/50) * X^(63093/100000).

    Cross-multiplied to integers: both sides are raised to the 100000th
    power, so no rounding is involved anywhere.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    return (count * 50) ** 100000 <= 81**100000 * X**63093


def sieve_report(X: int, residue_depth: int = DEFAULT_RESIDUE_DEPTH) -> SieveReport:
    """Run the sieve and collect per-depth candidate counts plus the
    count bound check for the exact survivor list."""
    survivors = enumerate_digit2free_powers(X, residue_depth)
    depth = max(residue_depth, 1)
    chain = survivor_chain(depth)
    counts = []
    for k, sk in enumerate(chain, start=1):
        counts.append(_count_in_range(sk, multiplicative_order_pow2(k), 0, X))
    # work: candidates that reached the exact check
    work = counts[-1] if residue_depth >= 1 else X + 1
    exact_count = sum(1 for n in survivors if n >= 1)
    return SieveReport(
        bound=X,
        survivors=tuple(survivors),
        counts_per_k=tuple(counts),
        work_units=work,
        narkiewicz_ok=narkiewicz_check(exact_count, X),
    )


def _iter_lambda_survivors(lam: DyadicRational, X: int):
    if X < 1:
        raise ValueError("X must be >= 1")
    A, s = lam.numerator, lam.exponent
    for n in range(1, min(s, X) + 1):
        v = A >> (s - n)
        if v >= 1 and int_omits_digit(v, 2):
            yield n
    if X > s:
        # n > s: the value is A * 2^(n-s) exactly; strip 2s from A so the
        # survivor filter applies with an odd multiplier
        e = 0
        A_odd = A
        while A_odd % 2 == 0:
            A_odd //= 2
            e += 1
        depth = DEFAULT_RESIDUE_DEPTH
        survivors = residue_survivors(depth, A_odd)
        modulus = multiplicative_order_pow2(depth)
        for n in range(s + 1, X + 1):
            m = n - s + e
            if m % modulus in survivors and int_omits_digit(A_odd << m, 2):
                yield n


def survivors_N(lam: DyadicRational, X: int) -> tuple[int, ...]:
    """Exponents 1 <= n <= X with floor(lam * 2^n) positive and digit-2-free."""
    return tuple(_iter_lambda_survivors(lam, X))


def count_N(lam: DyadicRational, X: int) -> int:
    """#{1 <= n <= X : floor(lam * 2^n) is positive and omits digit 2}.

    The zero floor is excluded: the counting function tracks positive
    integers whose expansion omits 2, and the empty expansion of 0 would
    otherwise qualify vacuously.
    """
    return sum(1 for _ in _iter_lambda_survivors(lam, X))


@dataclass(frozen=True)
class TildeCount:
    """k-digit surrogate count of exponents whose product stays digit-2-free.

    Only the k low-order digits of lam * 2^n are examined (k tied to X as in
    the residue sieve), so membership is refuted, never certified: the count
    is an upper proxy for the infinite-digit condition.
    """

    count: int
    k: int
    bound: int
    bound_ok: bool


def count_tilde_N(lam: PadicApprox, X: int) -> TildeCount:
    """Count n in [1, X] whose k low digits of lam * 2^n all lie in {0,1}.

    k is the depth whose residue modulus first reaches X, i.e.
    2*3^(k-2) < X <= 2*3^(k-1).  Requires lam to carry at least
    ceil(log3 X) + 2 digits so those k digits are determined.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    x3 = math_floor_log3(X)
    need = x3 + (0 if 3**x3 == X else 1) + 2
    if lam.precision < need:
        raise InsufficientDigits(
            f"lambda carries {lam.precision} digits, need {need} for X={X}"
        )
    k = 1
    while multiplicative_order_pow2(k) < X:
        k += 1
    survivors = residue_survivors(k, lam.residue(k))
    count = _count_in_range(survivors, multiplicative_order_pow2(k), 1, X)
    bound_ok = (count) ** 100000 <= 2**100000 * X**63093
    return TildeCount(count=count, k=k, bound=X, bound_ok=bound_ok)
