"""Residue sieves and counting for digit-2-free values of floor(lambda * 2^n).

The low-order ternary digits of A * 2^n are periodic in n: 2 is a primitive
root mod 3^k, so 2^n mod 3^k has period 2 * 3^(k-1).  A residue class
r mod 2 * 3^(j-1) whose j low digits of A * 2^r omit 2 is a survivor at depth
j; its three lifts r + t * 2 * 3^(j-1) (t = 0, 1, 2) share those digits and
differ in digit j, and for A prime to 3 exactly two of the three keep it in
{0, 1}.  The survivors therefore form a tree that doubles per level while the
classes triple (paper section 2), and the survivor count at depth k is the
k-digit surrogate counting function.

Exact enumeration walks that tree depth-first over the exponents of a range,
lifting a class only while its new digit is 0 or 1.  Once the modulus
exceeds the range, a class holds at most one exponent: a leaf at depth d.
Each node carries A * 2^r modulo 3^W with W = max(2d, 16), so a leaf reads
its next digits d..W-1 off the value it already holds, with no power of 2
of its own.  Only the rare leaves whose window omits 2 and does not yet
cover A * 2^m call ``_omits_two_above``, which reads A * 2^m mod 3^w for
doubling windows w and never builds A * 2^m itself.  The work grows like
X^0.63 instead of X.  The same walk tallies a sieve report's per-depth
counts, and, stopped at depth k without leaf checks (its nodes then carry
A * 2^r mod 3^k only), the k-digit surrogate count of ``count_tilde_N``;
every count here comes from it.  ``survivor_chain`` builds the whole
survivor sets per depth and is kept as the reference those counts are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientDigits
from .precision import math_floor_log3, power_le
from .ternary import DyadicRational, int_omits_digit

# the largest X the CLI sieves: sieve --max-exponent 10^11 takes about
# 16 s end to end (10^10 about 4 s), growing about 4x per decade, on a
# shared 2-vCPU Xeon with Python 3.11
MAX_SIEVE_X = 10**11

# depth of the per-depth candidate counts in a sieve report
REPORT_DEPTH = 12


def multiplicative_order_pow2(k: int) -> int:
    """Order of 2 in the units mod 3^k, i.e. 2 * 3^(k-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2 * 3 ** (k - 1)


@dataclass(frozen=True)
class PadicApprox:
    """A 3-adic integer known modulo 3^precision.

    value is the residue in [0, 3^precision); its top digits may be zero and
    still count towards the precision.
    """

    value: int
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if not 0 <= self.value < 3**self.precision:
            raise ValueError("value must lie in [0, 3^precision)")

    @classmethod
    def from_int(cls, value: int, precision: int) -> "PadicApprox":
        if value < 0:
            raise ValueError("value must be >= 0")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        return cls(value % 3**precision, precision)

    def residue(self, k: int | None = None) -> int:
        """Value mod 3^k (k defaults to the full precision)."""
        if k is None:
            return self.value
        if k < 0:
            raise ValueError("k must be >= 0")
        if k > self.precision:
            raise InsufficientDigits(f"have {self.precision} digits, need {k}")
        return self.value % 3**k


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
    chain = [frozenset(r for r in (0, 1) if (multiplier * pow(2, r, 3)) % 3 != 2)]
    for j in range(2, k + 1):  # depth being built
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
    return chain


def _omits_two_above(A: int, m: int, known: int) -> bool:
    """Exact check that A * 2^m omits digit 2, given its `known` low digits do.

    Reads the digits in doubling windows w from A * 2^m mod 3^w, stopping at
    the first 2 or once 3^w exceeds A * 2^m: 3^w has more bits than
    A.bit_length() + m, the most A * 2^m can have.
    """
    size = A.bit_length() + m
    checked, low = known, 3**known
    while True:
        w = max(2 * checked, 16)
        top = 3**w
        if not int_omits_digit(A * pow(2, m, top) % top // low, 2):
            return False
        if top.bit_length() > size:
            return True
        checked, low = w, top


def _tree_survivors(
    A: int, lo: int, hi: int, report_depth: int = 0, *, leaves: bool = True
) -> tuple[list[int], list[int]]:
    """Sorted exponents m in [lo, hi] for which A * 2^m omits digit 2, and
    the per-depth class counts of the walk that finds them.

    With leaves=False the walk stops at report_depth (at least 1) and
    returns only the counts, with an empty exponent list.

    A must be positive.  The walk is depth-first over the survivor tree; a
    node is (r, j, v) with r a class mod m_j = 2*3^(j-1), r <= hi, and
    v = A * 2^r mod 3^window, where depth is the first level whose modulus
    exceeds hi, or report_depth if that is deeper, and window is
    max(2 * depth, 16) (depth itself when leaves=False).  Lifting r by
    t * m_j multiplies v by lift[j]^t, so reading a new digit costs one
    small multiplication.  A leaf (j = depth) reads digits depth..window-1
    as v // 3^depth.  A 2 there rejects it; otherwise it is accepted when
    3^window has more bits than A * 2^r can have, and only the rest go on
    to _omits_two_above(A, r, window), which starts at the next window.
    For A prime to 3 two of every three lifts survive; a factor 3^t of A
    only adds t zero digits and lets every lift through t levels, so
    callers that enumerate survivors strip it; the counts hold for any
    positive A.

    counts[j-1] (j <= report_depth) is #{n in [0, hi] : the j low digits of
    A * 2^n omit 2}, summed over the surviving classes r at level j, which
    hold (hi - r) // m_j + 1 exponents each (none when r > hi).
    """
    counts = [0] * report_depth
    if hi < lo:
        return [], counts
    depth = max(1, report_depth)
    while leaves and multiplicative_order_pow2(depth) <= hi:
        depth += 1
    # a leaf reads digits depth..window-1 off v, the first window of
    # _omits_two_above(A, r, depth)
    window = max(2 * depth, 16) if leaves else depth
    mod = 3**window
    top_bits, size_A = mod.bit_length(), A.bit_length()
    pow3 = [3**j for j in range(depth + 1)]
    order = [0] + [multiplicative_order_pow2(j) for j in range(1, depth + 1)]
    lift = [0] + [pow(2, m, mod) for m in order[1:depth]]
    out = []
    stack = [(r, 1, A * pow(2, r, mod) % mod) for r in (0, 1) if r <= hi]
    while stack:
        r, j, v = stack.pop()
        if v // pow3[j - 1] % 3 == 2:
            continue
        if j <= report_depth:
            counts[j - 1] += (hi - r) // order[j] + 1
        if j == depth:
            if (
                leaves
                and r >= lo
                and int_omits_digit(v // pow3[depth], 2)
                and (top_bits > size_A + r or _omits_two_above(A, r, window))
            ):
                out.append(r)
            continue
        step, g = order[j], lift[j]
        for n in range(r, min(r + 3 * step, hi + 1), step):
            stack.append((n, j + 1, v))
            v = v * g % mod
    out.sort()
    return out, counts


def enumerate_digit2free_powers(X: int) -> list[int]:
    """All exponents 0 <= n <= X for which 2^n omits the ternary digit 2."""
    if X < 1:
        raise ValueError("X must be >= 1")
    return _tree_survivors(1, 0, X)[0]


@dataclass(frozen=True)
class SieveReport:
    """Outcome of a sieve run over exponents 0..bound.

    counts_per_k[k-1] is the number of exponents in [0, bound] that survive
    the residue filter at depth k, for k = 1..REPORT_DEPTH, summed over the
    depth-k classes of the same survivor-tree walk that finds the
    survivors.  work_units is the last of them: the depth-12 residue
    survivors, which a fixed-depth scan would check in full.  It is not the
    number of exact checks the survivor tree makes.
    """

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

    Cross-multiplied to integers, (50 * count)^100000 <= 81^100000 *
    X^63093, and decided by precision.power_le without rounding.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    return power_le(50 * count, 100000, (81, 100000), (X, 63093))


def sieve_report(X: int) -> SieveReport:
    """Run the sieve and collect per-depth candidate counts plus the
    count bound check for the exact survivor list, all from one walk of the
    survivor tree; narkiewicz_check rejects X < 1."""
    survivors, counts = _tree_survivors(1, 0, X, REPORT_DEPTH)
    exact_count = sum(1 for n in survivors if n >= 1)
    return SieveReport(
        bound=X,
        survivors=tuple(survivors),
        counts_per_k=tuple(counts),
        work_units=counts[-1],
        narkiewicz_ok=narkiewicz_check(exact_count, X),
    )


def survivors_N(lam: DyadicRational, X: int) -> tuple[int, ...]:
    """Exponents 1 <= n <= X with floor(lam * 2^n) positive and digit-2-free."""
    if X < 1:
        raise ValueError("X must be >= 1")
    A, s = lam.numerator, lam.exponent
    out = []
    for n in range(1, min(s, X) + 1):
        v = A >> (s - n)
        if v >= 1 and int_omits_digit(v, 2):
            out.append(n)
    # n > s: the value is A * 2^(n-s) = 3^t * core * 2^(n-s) with core prime
    # to 3; it omits 2 exactly when core * 2^(n-s) does
    core = A
    while core % 3 == 0:
        core //= 3
    out.extend(m + s for m in _tree_survivors(core, 1, X - s)[0])
    return tuple(out)


def count_N(lam: DyadicRational, X: int) -> int:
    """#{1 <= n <= X : floor(lam * 2^n) is positive and omits digit 2}.

    The zero floor is excluded: the counting function tracks positive
    integers whose expansion omits 2, and the empty expansion of 0 would
    otherwise qualify vacuously.
    """
    return len(survivors_N(lam, X))


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
    ceil(log3 X) + 2 digits so those k digits are determined.  The count is
    checked against 2 * X^0.63093, as count^100000 <= 2^100000 * X^63093.
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
    residue = lam.residue(k)
    if residue == 0:
        count = X  # 0 * 2^n has only zero digits
    else:
        # the walk counts [0, X]; n = 0 survives when the residue omits 2
        counts = _tree_survivors(residue, 0, X, k, leaves=False)[1]
        count = counts[k - 1] - int_omits_digit(residue, 2)
    bound_ok = power_le(count, 100000, (2, 100000), (X, 63093))
    return TildeCount(count=count, k=k, bound=X, bound_ok=bound_ok)
