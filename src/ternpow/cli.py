"""Command-line entry point.

Every report-producing command emits one JSON document on stdout with sorted
keys, so identical argv gives byte-identical output on any host; wall time
goes to stderr only (a timing field inside the payload would break
reproducibility, so it is pinned to null).  The printed config holds the two
global settings that can change a result, the precision cap and the state
limit; --threads is parsed and checked but ignored.  Large integers are
serialized as decimal strings, exact rationals as "p/q" strings, and ternary
digit strings most-significant digit first.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import acceptance
from .cantor import (
    MultiplierSet,
    build_automaton,
    exact_charpoly,
    hausdorff_dimension,
    scan_problems,
    smallest_witness,
    trim,
)
from .cantor.automaton import DEFAULT_STATE_LIMIT
from .cantor.dimension import DEFAULT_PREFIX_DEPTH, MAX_PREFIX_DEPTH
from .cantor.search import DEFAULT_SCAN_LIMIT
from .errors import TernpowError
from .orbit import cf_log3_2, check_lemma22, construct_theorem12, theorem11_census, three_gap
from .orbit.cf import MAX_CF_DEPTH
from .orbit.gaps import MAX_BRUTE_N, MAX_GAP_N, three_gap_bruteforce
from .orbit.leading import MAX_CENSUS_X
from .precision import DEFAULT_PRECISION_CAP, MIN_PRECISION
from .sieve import MAX_SIEVE_X, narkiewicz_check, sieve_report, survivors_N
from .ternary import DyadicRational

_INLINE_INT_LIMIT = 1 << 53


def _serialize(value):
    """JSON-safe form: big ints and exact rationals become decimal strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if abs(value) < _INLINE_INT_LIMIT else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if is_dataclass(value):
        return {f.name: _serialize(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _serialize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        seq = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_serialize(v) for v in seq]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit_report(command: str, args, results, notes: list[str]) -> str:
    # the global settings that can change a result
    config = {"precision_cap": args.precision_cap, "state_limit": args.state_limit}
    payload = {
        "command": command,
        "config": config,
        "notes": notes,
        "results": _serialize(results),
        "timing": None,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _int_at_least(low: int, at_most: int | None = None):
    """argparse type for an integer option that must be >= low (and
    <= at_most when given)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be <= {at_most}, got {value}")
        return value

    return parse


def _parse_dyadic(text: str) -> DyadicRational:
    """argparse type for --lambda: a positive A, A/2^s or A/B, B a power of 2."""
    try:
        return DyadicRational.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"lambda must be a positive dyadic rational 'A' or 'A/2^s', "
            f"got {text!r} ({exc})"
        ) from None


def _parse_digit_policy(text: str) -> str:
    """argparse type for --digit-policy: min, max or random:<int>."""
    name, colon, seed = text.partition(":")
    try:
        if name == "random" and colon:
            int(seed)
        elif text not in ("min", "max"):
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"digit policy must be min, max or random:<int>, got {text!r}"
        ) from None
    return text


def _parse_multipliers(text: str) -> MultiplierSet:
    """argparse type for --multipliers: comma-separated positive integers."""
    try:
        return MultiplierSet.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"multipliers must be comma-separated positive integers, "
            f"got {text!r} ({exc})"
        ) from None


def _parse_offset(text: str) -> Fraction:
    """argparse type for --offset: a decimal or A/B with B nonzero."""
    text = text.strip()
    try:
        if "/" in text:
            a, b = text.split("/", 1)
            return Fraction(int(a), int(b))
        if re.match(r"^-?\d+\.\d+$", text):
            return Fraction(text)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"offset must be a decimal or A/B with B nonzero, got {text!r}"
        ) from None


def _parse_criteria(text: str) -> list[int]:
    """argparse type for verify --only: known criterion numbers, at least one."""
    count = len(acceptance.ALL_CRITERIA)
    try:
        numbers = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"criteria must be comma-separated integers, got {text!r}"
        ) from None
    if not numbers:
        raise argparse.ArgumentTypeError("no criteria selected")
    unknown = [n for n in numbers if not 1 <= n <= count]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown criteria {unknown}; criteria are numbered 1..{count}"
        )
    return numbers


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1.

    Values that look like negative numbers, including fractions such as
    ``-1/3``, are read as option values rather than as option names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ternpow",
        description="Exact experiments on ternary digit expansions of powers of two.",
    )
    parser.add_argument(
        "--precision-cap",
        type=_int_at_least(MIN_PRECISION),
        default=DEFAULT_PRECISION_CAP,
        help="bits ceiling for certified interval escalation (default "
        f"{DEFAULT_PRECISION_CAP}, minimum {MIN_PRECISION}); verify runs at the "
        "library default",
    )
    parser.add_argument(
        "--state-limit",
        type=_int_at_least(1),
        default=DEFAULT_STATE_LIMIT,
        help=f"carry-machine state guard (default {DEFAULT_STATE_LIMIT})",
    )
    parser.add_argument(
        "--threads",
        type=_int_at_least(1),
        help="ignored: every command runs in one process",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser(
        "sieve",
        help="exponents n with floor(lambda * 2^n) digit-2-free",
        description="CSV schema: one row per surviving exponent, column 'n'.",
    )
    p.add_argument(
        "--max-exponent",
        type=_int_at_least(1, at_most=MAX_SIEVE_X),
        required=True,
        metavar="X",
        help=f"largest exponent, at most {MAX_SIEVE_X}",
    )
    p.add_argument("--lambda", dest="lam", type=_parse_dyadic, default=None, metavar="A/2^s")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser(
        "cf",
        help="continued fraction of log3(2) with exact convergents",
        description="JSON only; convergents as [p, q] decimal-string pairs.",
    )
    p.add_argument(
        "--depth",
        type=_int_at_least(1, at_most=MAX_CF_DEPTH),
        required=True,
        metavar="D",
        help=f"number of partial quotients, at most {MAX_CF_DEPTH}",
    )

    p = sub.add_parser(
        "three-gap",
        help="arc-length spectrum of the rotation orbit at N points",
    )
    p.add_argument(
        "--N",
        type=_int_at_least(1, at_most=MAX_GAP_N),
        required=True,
        help="the orbit has N + 1 points; N at most 10^1000",
    )
    p.add_argument(
        "--offset",
        type=_parse_offset,
        default="0",
        help="orbit offset x (decimal or A/B)",
    )
    p.add_argument(
        "--brute-check",
        action="store_true",
        help=f"also sort the points directly; needs N <= {MAX_BRUTE_N}",
    )

    p = sub.add_parser(
        "census",
        help="leading-digit-window census for exponents up to X",
    )
    p.add_argument("--lambda", dest="lam", type=_parse_dyadic, required=True, metavar="A/2^s")
    p.add_argument(
        "--max",
        dest="max_x",
        type=_int_at_least(2, at_most=MAX_CENSUS_X),
        required=True,
        metavar="X",
        help=f"largest exponent, at most {MAX_CENSUS_X}",
    )

    p = sub.add_parser(
        "construct",
        help="run the zero-block construction for 1 or 2 levels",
    )
    p.add_argument("--levels", type=int, choices=(1, 2), required=True)
    p.add_argument(
        "--digit-policy",
        type=_parse_digit_policy,
        default="min",
        help="min | max | random:<seed>",
    )

    p = sub.add_parser(
        "dimension",
        help="dimension enclosure for a multiplier set's admissible 3-adic set",
    )
    p.add_argument(
        "--multipliers", type=_parse_multipliers, required=True, metavar="M1,M2,..."
    )
    p.add_argument("--exact-charpoly", dest="charpoly", action="store_true")
    p.add_argument(
        "--prefix-depth",
        type=_int_at_least(1, at_most=MAX_PREFIX_DEPTH),
        default=DEFAULT_PREFIX_DEPTH,
        metavar="R",
        help=f"number of prefix counts, at most {MAX_PREFIX_DEPTH}",
    )

    p = sub.add_parser(
        "scan",
        help="classify all M <= X into witness / positive-dimension classes",
        description="CSV schema: one row per M with columns "
        "M,normalized_M,in_MC,in_MH,witness.",
    )
    p.add_argument(
        "--max-M",
        dest="max_m",
        type=_int_at_least(1, at_most=DEFAULT_SCAN_LIMIT),
        required=True,
        metavar="X",
        help=f"largest multiplier, at most {DEFAULT_SCAN_LIMIT}",
    )
    p.add_argument("--out", choices=("json", "csv"), default="json")

    p = sub.add_parser(
        "search-n",
        help="smallest N with N and all M*N digit-2-free",
    )
    p.add_argument(
        "--multipliers", type=_parse_multipliers, required=True, metavar="M1,M2,..."
    )

    p = sub.add_parser(
        "export-automaton",
        help="emit the carry machine as DOT or JSON",
    )
    p.add_argument(
        "--multipliers", type=_parse_multipliers, required=True, metavar="M1,M2,..."
    )
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--trim", action="store_true", help="export the trimmed machine")

    p = sub.add_parser(
        "verify",
        help="run the acceptance suite; one pass/fail line per criterion",
    )
    p.add_argument(
        "--only",
        type=_parse_criteria,
        default=None,
        metavar="1,2,...",
        help="comma-separated criterion numbers to run",
    )

    return parser


def _cmd_sieve(args) -> str:
    if args.lam is None:
        report = sieve_report(args.max_exponent)
        survivors = report.survivors
        results = report
    else:
        survivors = survivors_N(args.lam, args.max_exponent)
        results = {
            "bound": args.max_exponent,
            "lambda": str(args.lam),
            "survivors": survivors,
            "count": len(survivors),
            "narkiewicz_ok": narkiewicz_check(len(survivors), args.max_exponent),
        }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n"])
        for n in survivors:
            writer.writerow([n])
        return buf.getvalue().rstrip("\n")
    return _emit_report(
        "sieve",
        args,
        results,
        [
            "an exponent n survives when floor(lambda * 2^n) is a positive "
            "integer whose ternary expansion omits the digit 2",
            "the count bound count <= 1.62 * X^0.63093 is checked by exact "
            "cross-multiplied integer powers",
        ],
    )


def _cmd_cf(args) -> str:
    cf = cf_log3_2(args.depth, cap=args.precision_cap)
    results = {
        "depth": args.depth,
        "partial_quotients": cf.partial_quotients,
        "convergents": [[p, q] for p, q in cf.convergents],
        "growth_check_per_index": check_lemma22(cf),
    }
    return _emit_report(
        "cf",
        args,
        results,
        [
            "quotients are those both rational endpoints of one certified "
            "enclosure share, found by Euclid in integers; every convergent "
            "is re-verified against the determinant identity",
            "growth check: q_n <= 1200 * q_(n-1)^13.3, compared via integer "
            "10th powers",
        ],
    )


def _cmd_three_gap(args) -> str:
    offset = args.offset
    depth = 14
    cf = cf_log3_2(depth, cap=args.precision_cap)
    while cf.q(cf.depth) + cf.q(cf.depth - 1) <= args.N:
        depth *= 2
        cf = cf_log3_2(depth, cap=args.precision_cap)
    spec = three_gap(cf, offset, args.N, cap=args.precision_cap)
    arcs = zip(spec.bounds, spec.multiplicities)
    results = {
        "N": args.N,
        "offset": str(offset),
        "prec": spec.prec,
        "arcs": [{"lo": lo, "hi": hi, "multiplicity": m} for (lo, hi), m in arcs],
        "ladder": {"n": spec.n, "j": spec.j, "k": spec.k},
        "labeled": [{"lo": lo, "hi": hi, "multiplicity": m} for (lo, hi), m in spec.labeled],
    }
    if args.brute_check:
        brute = three_gap_bruteforce(cf, offset, args.N, spec.prec)
        results["brute_match"] = spec.matches(brute)
    return _emit_report(
        "three-gap",
        args,
        results,
        [
            "N+1 orbit points of x + j*theta mod 1 leave at most three distinct "
            "arc lengths, the longest equal to the sum of the other two",
            "lo and hi are a length's exact values at the ends of a certified "
            "prec-bit bracket of theta; brute_match sorts the orbit at the lower end",
        ],
    )


def _cmd_census(args) -> str:
    report = theorem11_census(args.lam, args.max_x, cap=args.precision_cap)
    return _emit_report(
        "census",
        args,
        report,
        [
            "census counts exponents whose leading digit window omits 2; it is "
            "a certified superset of the exact survivor count",
            "bound: census <= 25 * X^(389/400), checked by exact integer powers",
        ],
    )


def _cmd_construct(args) -> str:
    state = construct_theorem12(
        args.levels, digit_policy=args.digit_policy, cap=args.precision_cap
    )
    return _emit_report(
        "construct",
        args,
        state,
        [
            "each level extends the seed so floor(lambda * 2^m) ends in a long "
            "zero block in base 3 while the integer stays digit-1-free",
            "levels too wide to materialize report scalar data with "
            "interval-certified checks instead of digit-level ones",
        ],
    )


def _format_poly(coeffs: tuple[int, ...]) -> str:
    """Integer polynomial in x, highest degree first, written as sympy
    prints it: for example "x**4 - 2*x**3 + x**2 - 1"."""
    degree = len(coeffs) - 1
    text = ""
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        d = degree - k
        if d == 0:
            term = str(abs(c))
        else:
            power = "x" if d == 1 else f"x**{d}"
            term = power if abs(c) == 1 else f"{abs(c)}*{power}"
        if not text:
            text = "-" + term if c < 0 else term
        else:
            text += (" - " if c < 0 else " + ") + term
    return text


def _cmd_dimension(args) -> str:
    machine = build_automaton(args.multipliers, args.state_limit)
    est = hausdorff_dimension(machine, prefix_depth=args.prefix_depth)
    results = _serialize(est)
    results["value"] = est.value
    if args.charpoly:
        results["charpoly"] = _format_poly(exact_charpoly(machine))
    return _emit_report(
        "dimension",
        args,
        results,
        [
            "value is log base 3 of the spectral radius of the trimmed carry "
            "machine; lo/hi is a certified rational enclosure",
            "prefix_counts tabulates accepted digit strings of the untrimmed "
            "machine per length",
        ],
    )


def _cmd_scan(args) -> str:
    result = scan_problems(args.max_m, state_limit=args.state_limit)
    if args.out == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["M", "normalized_M", "in_MC", "in_MH", "witness"])
        for row in result.rows:
            writer.writerow(
                [
                    row.m,
                    row.normalized_m,
                    int(row.in_mc),
                    int(row.in_mh),
                    "" if row.witness is None else row.witness,
                ]
            )
        return buf.getvalue().rstrip("\n")
    return _emit_report(
        "scan",
        args,
        result,
        [
            "in_MC: some positive N keeps N and M*N digit-2-free, decided "
            "exactly by carry reachability",
            "in_MH: the {1,M} admissible set has positive dimension, decided "
            "by an exact structural spectral-radius test",
        ],
    )


def _cmd_search_n(args) -> str:
    res = smallest_witness(args.multipliers, state_limit=args.state_limit)
    results = _serialize(res)
    results["bound"] = res.bound
    if res.digits is not None:
        results["digits"] = "".join(str(d) for d in reversed(res.digits))
    return _emit_report(
        "search-n",
        args,
        results,
        [
            "N must keep N itself and every M*N free of the ternary digit 2",
            "a found N certifies the dimension lower bound "
            "log3(2)/ceil(log3(N*M_k))",
        ],
    )


def _cmd_export_automaton(args) -> str:
    a = build_automaton(args.multipliers, args.state_limit)
    if args.trim:
        a = trim(a)
    return a.to_dot() if args.format == "dot" else a.to_json()


def _cmd_verify(args) -> tuple[str, int]:
    results = acceptance.run_all(args.only)
    lines = [r.line() for r in results]
    failed = [r.number for r in results if not r.passed]
    if failed:
        lines.append(f"FAILED criteria: {failed}")
        return "\n".join(lines), 3
    lines.append(f"all {len(results)} criteria passed")
    return "\n".join(lines), 0


_PARSER = _build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, then check the bounds that tie two options together."""
    args = _PARSER.parse_args(argv)
    if args.command == "three-gap" and args.brute_check and args.N > MAX_BRUTE_N:
        _PARSER.error(f"three-gap --brute-check needs --N <= {MAX_BRUTE_N}, got {args.N}")
    return args


def dispatch(argv: list[str]) -> tuple[str, int]:
    """Run one command; returns (stdout text, exit code)."""
    return _run(_parse_args(argv))


_COMMANDS = {
    "sieve": _cmd_sieve,
    "cf": _cmd_cf,
    "three-gap": _cmd_three_gap,
    "census": _cmd_census,
    "construct": _cmd_construct,
    "dimension": _cmd_dimension,
    "scan": _cmd_scan,
    "search-n": _cmd_search_n,
    "export-automaton": _cmd_export_automaton,
}


def _run(args) -> tuple[str, int]:
    if args.command == "verify":
        return _cmd_verify(args)
    return _COMMANDS[args.command](args), 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    t0 = time.perf_counter()
    try:
        args = _parse_args(argv)
        text, code = _run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (TernpowError, ValueError, OverflowError) as exc:
        print(f"ternpow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(text)
    print(
        f"# {args.command} finished in {time.perf_counter() - t0:.2f}s",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
