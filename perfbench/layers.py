"""Span tracing of ternpow's layers from outside the package.

A traced worker replaces each function in ``TARGETS`` with a wrapper, at
every module attribute that holds it (the defining module, the modules that
import it by name, and the package re-exports), so calls between layers and
calls inside one layer are both seen.  Each call records one span: its name,
its parent span, start and end in nanoseconds, and counts read from its
arguments or return value.  Spans stay in memory; the worker hands them to
the runner when its command list ends, and ``summarize`` turns one pass's
spans into per-function calls, self time, counts and errors.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# layer (module under ternpow) -> public functions wrapped in the traced run
TARGETS = {
    "cli": ("dispatch",),
    "ternary": ("int_omits_digit",),
    "precision": ("math_floor_log3", "compare_power3_power2", "escalate"),
    "sieve": (
        "survivor_chain",
        "enumerate_digit2free_powers",
        "survivors_N",
        "narkiewicz_check",
        "sieve_report",
    ),
    "orbit.cf": ("cf_log3_2",),
    "orbit.gaps": ("three_gap", "three_gap_bruteforce"),
    "orbit.leading": ("theorem11_census", "census_bound_check"),
    "orbit.construction": ("construct_theorem12", "find_lk"),
    "cantor.automaton": ("build_automaton", "trim", "count_prefixes"),
    "cantor.dimension": ("hausdorff_dimension", "strongly_connected_components"),
    "cantor.search": ("smallest_witness", "scan_problems"),
}

_COMPARE = "precision.compare_power3_power2"
_ESCALATE = "precision.escalate"


def _states(result) -> dict:
    return {"states": result.num_states}


# counts taken from a wrapped function's return value
_ON_RETURN = {
    "sieve.sieve_report": lambda r: {
        "candidates": r.work_units,
        "survivors": len(r.survivors),
    },
    "cantor.automaton.build_automaton": _states,
    "cantor.automaton.trim": _states,
    "cantor.dimension.hausdorff_dimension": lambda r: {"converged": int(r.converged)},
}


def _count_attempts(attempt, counts: dict):
    """Wrap escalate's ``attempt`` callback to count tries and peak bits."""

    def counted(prec: int):
        counts["attempts"] += 1
        counts["peak_bits"] = max(counts["peak_bits"], prec)
        return attempt(prec)

    return counted


class Tracer:
    """In-memory span list; a span is [name, parent, start_ns, end_ns, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_return = _ON_RETURN.get(name)
        wraps_attempt = name == _ESCALATE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            if wraps_attempt:
                span[4] = {"attempts": 0, "peak_bits": 0}
                args = (_count_attempts(args[0], span[4]), *args[1:])
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = dict(span[4] or {}, errors=1)
                raise
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if on_return is not None:
                span[4] = on_return(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Bind a traced wrapper at every ternpow attribute holding a target."""
    import ternpow.cli  # noqa: F401  (loads every layer module)

    modules = [
        m
        for n, m in list(sys.modules.items())
        if n == "ternpow" or n.startswith("ternpow.")
    ]
    for layer, names in TARGETS.items():
        home = sys.modules[f"ternpow.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            traced = tracer.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def summarize(spans: list[list], kinds: list[str]) -> dict:
    """Per-function totals of one traced pass, and self time per command kind.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.  ``kinds``
    names the command kind of each root span, in order.  A call to
    compare_power3_power2 counts as literal when no escalate span runs
    beneath it.
    """
    child_ns = [0] * len(spans)
    for _name, parent, start, end, _counts in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    funcs: dict[str, Counter] = defaultdict(Counter)
    by_kind: dict[str, Counter] = defaultdict(Counter)
    escalated: set[int] = set()
    command = -1
    for i, (name, parent, start, end, counts) in enumerate(spans):
        if parent < 0:
            command += 1
            kind = kinds[command]
            by_kind[kind]["command"] += end - start
        self_ns = end - start - child_ns[i]
        f = funcs[name]
        f["calls"] += 1
        f["self_ns"] += self_ns
        by_kind[kind][name] += self_ns
        if counts:
            peak = counts.get("peak_bits", 0)
            f.update({k: v for k, v in counts.items() if k != "peak_bits"})
            f["peak_bits"] = max(f["peak_bits"], peak)
        if name == _ESCALATE:
            j = parent
            while j >= 0 and spans[j][0] != _COMPARE:
                j = spans[j][1]
            if j >= 0:
                escalated.add(j)
    funcs[_COMPARE]["literal_calls"] = funcs[_COMPARE]["calls"] - len(escalated)
    return {"functions": funcs, "by_kind": by_kind}


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-pass means of the traced counters, under their metric names."""
    n = len(summaries)

    def total(fn: str, key: str) -> int:
        return sum(s["functions"][fn][key] for s in summaries)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer, names in TARGETS.items():
        errors = 0
        for fname in names:
            fn = f"{layer}.{fname}"
            out[f"{fn}.calls"] = total(fn, "calls") / n
            out[f"{fn}.self_s"] = total(fn, "self_ns") / n / 1e9
            errors += total(fn, "errors")
        out[f"{layer}.errors"] = errors / n
    out[f"{_COMPARE}.literal_calls"] = total(_COMPARE, "literal_calls") / n
    out[f"{_ESCALATE}.attempts"] = total(_ESCALATE, "attempts") / n
    out[f"{_ESCALATE}.peak_bits"] = max(
        s["functions"][_ESCALATE]["peak_bits"] for s in summaries
    )
    candidates = total("sieve.sieve_report", "candidates")
    out["sieve.candidates_checked"] = candidates / n
    out["sieve.useful_ratio"] = ratio(total("sieve.sieve_report", "survivors"), candidates)
    out["cantor.automaton.states_built"] = total("cantor.automaton.build_automaton", "states") / n
    out["cantor.automaton.states_trimmed"] = total("cantor.automaton.trim", "states") / n
    dims = "cantor.dimension.hausdorff_dimension"
    out["cantor.dimension.converged_ratio"] = ratio(total(dims, "converged"), total(dims, "calls"))
    return out


def kind_shares(summaries: list[dict]) -> dict[str, list[tuple[str, float]]]:
    """For each command kind, the three functions with the most self time,
    as shares of the kind's total command time."""
    merged: dict[str, Counter] = defaultdict(Counter)
    for s in summaries:
        for kind, c in s["by_kind"].items():
            merged[kind].update(c)
    out = {}
    for kind, c in merged.items():
        command_ns = c.pop("command")
        ranked = c.most_common(3)
        out[kind] = [(fn, ns / command_ns) for fn, ns in ranked]
    return out
