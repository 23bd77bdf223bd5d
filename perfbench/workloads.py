"""Seeded command lists for the three workloads, and the answer checks.

A workload is a warm-up command plus a recipe for one pass: a list of CLI
argv lists, each tagged with its kind and size.  ``Inputs`` draws every pass
of a run from one seeded generator and never hands out the same input twice
in a run, so no command can hit an in-process memo that a CLI user, who runs
one command per process, would never hit.  Every argv passes ``--threads 1``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

THREADS = ("--threads", "1")


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    size: int  # work the rate metrics divide by: X, N, depth, max M, or 1


class Inputs:
    """Seeded draws that are unique per kind within one run."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._used: set = set()

    def fresh(self, key: str, draw: Callable[[], object]):
        for _ in range(10_000):
            value = draw()
            if (key, value) not in self._used:
                self._used.add((key, value))
                return value
        raise RuntimeError(f"input space for {key!r} exhausted")


def _until(draw: Callable[[], int], accept: Callable[[int], bool]) -> int:
    while not accept(value := draw()):
        pass
    return value


def _lam(a: int, s: int) -> str:
    return f"{a}/2^{s}" if s else str(a)


def _cmd(kind: str, size: int, *argv: object) -> Command:
    return Command(kind, THREADS + tuple(str(a) for a in argv), size)


def digits_pass(inp: Inputs) -> list[Command]:
    rng = inp.rng
    x = inp.fresh("sieve", lambda: 200_000 + rng.randint(-1000, 1000))
    cmds = [_cmd("sieve", x, "sieve", "--max-exponent", x)]
    # a third of odd A < 2000 are multiples of 3, whose survivor chains are
    # larger; every pass holds that share, so passes carry the same mix
    for div3 in (True, True, False, False, False, False):
        a = inp.fresh(
            "chain",
            lambda: _until(lambda: rng.randrange(3, 2000, 2), lambda a: (a % 3 == 0) == div3),
        )
        lam = _lam(a, rng.randint(0, 5))
        cmds.append(
            _cmd("sieve_lambda", 100_000, "sieve", "--lambda", lam, "--max-exponent", 100_000)
        )
    x = inp.fresh("census1", lambda: 20_000 + rng.randint(-200, 200))
    cmds.append(_cmd("census", x, "census", "--lambda", 1, "--max", x))
    for _ in range(4):
        lam = inp.fresh(
            "census", lambda: _lam(rng.randrange(3, 2000, 2), rng.randint(0, 5))
        )
        cmds.append(_cmd("census", 10_000, "census", "--lambda", lam, "--max", 10_000))
    return cmds


def orbit_pass(inp: Inputs) -> list[Command]:
    rng = inp.rng
    cmds = []
    for _ in range(16):
        n, a = inp.fresh(
            "gap", lambda: (round(10 ** rng.uniform(6, 12)), rng.randrange(97))
        )
        cmds.append(_cmd("gap_formula", 1, "three-gap", "--N", n, "--offset", f"{a}/97"))
    # antithetic pair: each N covers 5000..15000 while the pair's total work
    # stays 20000 points, so passes cost the same
    u = inp.fresh("brute", lambda: rng.randrange(5000))
    for n in (5000 + u, 15000 - u):
        cmds.append(_cmd("gap_brute", n, "three-gap", "--brute-check", "--N", n))
    depth = inp.fresh("cf", lambda: 400 + rng.randint(-20, 20))
    cmds.append(_cmd("cf", depth, "cf", "--depth", depth))
    policy = inp.fresh("construct", lambda: rng.randrange(10**6))
    cmds.append(
        _cmd("construct", 1, "construct", "--levels", 2, "--digit-policy", f"random:{policy}")
    )
    return cmds


_DIM_LO, _DIM_HI, _DIM_STRATA = 4, 10_000, 12


def cantor_pass(inp: Inputs) -> list[Command]:
    rng = inp.rng
    cmds = []
    # the {1,M} carry machine grows with M when M = 1 (mod 3) and is a
    # single state when M = 2 (mod 3); one M of each residue per stratum of
    # [4, 10^4] gives every pass the same spread of machine sizes
    width = (_DIM_HI - _DIM_LO + 1) / _DIM_STRATA
    for i in range(_DIM_STRATA):
        lo, hi = _DIM_LO + int(i * width), _DIM_LO + int((i + 1) * width) - 1
        for residue in (1, 2):
            m = inp.fresh(
                "dim", lambda: _until(lambda: rng.randint(lo, hi), lambda m: m % 3 == residue)
            )
            cmds.append(_cmd("dimension", 1, "dimension", "--multipliers", f"1,{m}"))
    x = inp.fresh("scan", lambda: rng.randint(2901, 3000))
    cmds.append(_cmd("scan", x, "scan", "--max-M", x))
    return cmds


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple[str, ...]
    make_pass: Callable[[Inputs], list[Command]]


# set-up (setup_s) ends with one warm-up command, which fills the import-time,
# mpmath-constant and lambda = 1 survivor-chain caches; its input lies outside
# the range its workload draws from, so it never answers a timed input
WORKLOADS = {
    w.name: w
    for w in (
        Workload("digits", THREADS + ("sieve", "--max-exponent", "1000"), digits_pass),
        Workload("orbit", THREADS + ("three-gap", "--N", "1000"), orbit_pass),
        Workload("cantor", THREADS + ("dimension", "--multipliers", "1,2"), cantor_pass),
    )
}


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def _omits_two(n: int) -> bool:
    while n:
        n, d = divmod(n, 3)
        if d == 2:
            return False
    return True


def _arg(cmd: Command, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


# exponents up to this bound are re-checked digit by digit (quadratic cost)
_RECHECK_MAX_EXPONENT = 20_000
# convergent brackets are re-checked by literal powers up to this q
_BRACKET_MAX_Q = 20_000


def _check_sieve(cmd: Command, r: dict) -> None:
    _require(r["bound"] == cmd.size, "bound differs from --max-exponent")
    _require(r["survivors"] == [0, 2, 8], f"survivors {r['survivors']} != [0, 2, 8]")
    _require(r["narkiewicz_ok"] is True, "narkiewicz_ok is not true")


def _check_sieve_lambda(cmd: Command, r: dict) -> None:
    text = _arg(cmd, "--lambda")
    a, _, s = text.partition("/2^")
    a, s = int(a), int(s or 0)
    survivors = r["survivors"]
    _require(r["narkiewicz_ok"] is True, "narkiewicz_ok is not true")
    _require(r["count"] == len(survivors), "count differs from survivor list")
    _require(survivors == sorted(set(survivors)), "survivors not strictly increasing")
    _require(all(1 <= n <= cmd.size for n in survivors), "survivor outside [1, X]")
    for n in survivors:
        if n <= _RECHECK_MAX_EXPONENT:
            v = (a << n) >> s
            _require(v >= 1 and _omits_two(v), f"floor(lambda*2^{n}) contains a 2")


def _check_census(cmd: Command, r: dict) -> None:
    _require(r["X"] == cmd.size, "X differs from --max")
    _require(r["bound_ok"] is True, "bound_ok is not true")
    _require(r["per_block_ok"] is True, "per_block_ok is not true")
    _require(r["census"] >= r["exact_count"], "census < exact_count")


def _check_gap(cmd: Command, r: dict) -> None:
    n = int(_arg(cmd, "--N"))
    _require(r["N"] == n, "N differs from --N")
    _require(1 <= len(r["arcs"]) <= 3, "more than three arc lengths")
    _require(sum(a["multiplicity"] for a in r["arcs"]) == n + 1, "arcs do not sum to N+1")


def _check_gap_brute(cmd: Command, r: dict) -> None:
    _check_gap(cmd, r)
    _require(r.get("brute_match") is True, "brute_match is not true")


def _check_cf(cmd: Command, r: dict) -> None:
    quotients = [int(a) for a in r["partial_quotients"]]
    conv = [(int(p), int(q)) for p, q in r["convergents"]]
    _require(len(quotients) == len(conv) == cmd.size + 1, "depth mismatch")
    pm, qm, pmm, qmm = 1, 0, 0, 1
    for n, (a, (p, q)) in enumerate(zip(quotients, conv)):
        _require((p, q) == (a * pm + pmm, a * qm + qmm), f"recurrence fails at {n}")
        _require(pm * q - p * qm in (1, -1), f"determinant fails at {n}")
        if 0 < q <= _BRACKET_MAX_Q:
            # even convergents lie below log3(2): 3^p < 2^q; odd ones above
            _require((3**p < 2**q) == (n % 2 == 0), f"convergent {n} on wrong side")
        pmm, qmm, pm, qm = pm, qm, p, q


_CONSTRUCT_INFO_FLAGS = {"materialized", "scan_certified"}


def _check_construct(cmd: Command, r: dict) -> None:
    _require(r["levels"] == 2, "levels != 2")
    _require(r["s_consistent"] is True, "s_consistent is not true")
    for rep in r["reports"]:
        for key, value in rep.items():
            if isinstance(value, bool) and key not in _CONSTRUCT_INFO_FLAGS:
                _require(value, f"level {rep['level']}: {key} is false")


def _check_dimension(cmd: Command, r: dict) -> None:
    lo, hi = Fraction(r["lo"]), Fraction(r["hi"])
    _require(lo <= hi, "lo > hi")
    _require(Fraction(r["rho_lo"]) <= Fraction(r["rho_hi"]), "rho_lo > rho_hi")
    _require(r["converged"] is True, "converged is not true")


def _check_scan(cmd: Command, r: dict) -> None:
    rows = r["rows"]
    _require(r["x"] == cmd.size and len(rows) == cmd.size, "row count differs from --max-M")
    for i, row in enumerate(rows, start=1):
        _require(row["m"] == i, f"row {i} has M={row['m']}")
        w = row["witness"]
        _require((w is not None) == row["in_mc"], f"M={i}: in_MC disagrees with witness")
        if w is not None:
            w = int(w)
            _require(w >= 1 and _omits_two(w) and _omits_two(i * w), f"M={i}: witness {w} has a 2")


CHECKS = {
    "sieve": _check_sieve,
    "sieve_lambda": _check_sieve_lambda,
    "census": _check_census,
    "gap_formula": _check_gap,
    "gap_brute": _check_gap_brute,
    "cf": _check_cf,
    "construct": _check_construct,
    "dimension": _check_dimension,
    "scan": _check_scan,
}


def check(cmd: Command, code: int, stdout: str, error: str | None) -> str | None:
    """None when the command's answer passes, else what went wrong."""
    if error is not None:
        return error
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout, parse_constant=_reject_constant)
        CHECKS[cmd.kind](cmd, payload["results"])
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
