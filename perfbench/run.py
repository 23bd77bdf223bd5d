"""Benchmark of the ternpow CLI: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload digits --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn and prefixes each metric in
the last line with its workload name.  Each pass of the workload's command list runs in a fresh single-threaded
worker process (worker.py) that calls ``ternpow.cli.dispatch`` in-process,
one command after another.  Passes repeat, each with fresh seeded inputs,
until ``--seconds`` is used up.  Every answer is checked (workloads.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json.  With ``--trace 1`` each pass runs twice on the same
inputs, untraced and then traced (layers.py); the last line reports the
per-layer metrics, the untraced command-kind rates, and the tracing
overhead, and every traced stdout must equal its untraced twin.  A record of
the run (environment, per-command times and stdout digests, all metrics) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
from workloads import WORKLOADS, Command, Inputs, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"

MIN_PASSES = 3  # untraced passes per --trace 0 run
SETUP_STARTS = 7  # fresh starts behind the setup_s median
HARD_LIMIT_S = 170.0  # a run never outlives this

# rate metrics of one command kind: sum of sizes over sum of seconds
KIND_RATES = {
    "sieve_exponents_per_s": "sieve",
    "sieve_lambda_exponents_per_s": "sieve_lambda",
    "census_exponents_per_s": "census",
    "gap_formula_queries_per_s": "gap_formula",
    "gap_brute_points_per_s": "gap_brute",
    "cf_quotients_per_s": "cf",
    "dimension_sets_per_s": "dimension",
    "scan_multipliers_per_s": "scan",
}
REPORTED = ("setup_s", "wall_s", "fail_ratio", "peak_rss_mb", *KIND_RATES, "construct_s")


class BenchError(Exception):
    pass


@dataclass
class Pass:
    commands: list[Command]
    setup_s: float
    traced: bool
    seconds: list[float] = field(default_factory=list)
    sha256: list[str] = field(default_factory=list)
    failures: list[str | None] = field(default_factory=list)
    digest: str = ""
    peak_rss_mb: float = 0.0
    summary: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.seconds)


def start_worker(warmup, commands, trace: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to ready, its reply)."""
    env = dict(os.environ)
    env.pop("TERNARY_PRECISION_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    request = json.dumps({"warmup": list(warmup), "commands": commands, "trace": trace})
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), request],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "ready\n" or code != 0:
        raise BenchError(f"worker exited with code {code} (killed at the time limit if -9)")
    reply = json.loads(rest)
    if not Path(reply["ternpow_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported ternpow from {reply['ternpow_file']}, not {SRC}")
    return setup_s, reply


def run_pass(workload, commands: list[Command], trace: bool, deadline: float, env: dict) -> Pass:
    setup_s, reply = start_worker(workload.warmup, [list(c.argv) for c in commands], trace, deadline)
    env.update(python=reply["python"], mpmath_backend=reply["mpmath_backend"])
    p = Pass(commands, setup_s, trace, peak_rss_mb=reply["maxrss_kb"] / 1024)
    digest = hashlib.sha256()
    for cmd, res in zip(commands, reply["commands"]):
        p.seconds.append(res["seconds"])
        p.sha256.append(hashlib.sha256(res["stdout"].encode()).hexdigest())
        p.failures.append(check(cmd, res["code"], res["stdout"], res["error"]))
        digest.update(res["stdout"].encode() + b"\n")
    p.digest = digest.hexdigest()
    if trace:
        p.summary = layers.summarize(reply["spans"], [c.kind for c in commands])
    return p


def kind_metrics(passes: list[Pass]) -> dict[str, float | None]:
    """Rates per command kind, and construct_s, over untraced passes."""
    done = [(c, s) for p in passes for c, s in zip(p.commands, p.seconds)]
    out: dict[str, float | None] = {}
    for name, kind in KIND_RATES.items():
        mine = [(c.size, s) for c, s in done if c.kind == kind]
        out[name] = sum(n for n, _ in mine) / sum(s for _, s in mine) if mine else None
    construct = [s for c, s in done if c.kind == "construct"]
    out["construct_s"] = statistics.median(construct) if construct else None
    return out


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ternpow").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return res.stdout.strip() or None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


@dataclass
class Result:
    env: dict
    plain: list[Pass]
    traced: list[Pass]
    setups: list[float]
    mismatches: int
    computed: dict[str, float | None]

    @property
    def summaries(self) -> list[dict]:
        return [t.summary for t in self.traced]

    @property
    def runs(self) -> list[Pass]:
        return self.plain + self.traced

    @property
    def attempted(self) -> int:
        return sum(len(p.commands) for p in self.runs)

    @property
    def failed(self) -> int:
        return sum(f is not None for p in self.runs for f in p.failures)


def measure(name: str, seed: int, seconds: int, trace: bool, deadline: float, env: dict) -> Result:
    """Run passes of one workload for ``seconds`` and compute every metric."""
    workload = WORKLOADS[name]
    inputs = Inputs(seed)
    env = {**env, "workload": name}
    plain: list[Pass] = []
    traced: list[Pass] = []
    setups: list[float] = []
    mismatches = 0
    t_start = perf_counter()
    while True:
        commands = workload.make_pass(inputs)
        p = run_pass(workload, commands, False, deadline, env)
        plain.append(p)
        setups.append(p.setup_s)
        if trace:
            t = run_pass(workload, commands, True, deadline, env)
            for i, (a, b) in enumerate(zip(p.sha256, t.sha256)):
                if a != b and t.failures[i] is None:
                    t.failures[i] = "traced stdout differs from untraced stdout"
                    mismatches += 1
            traced.append(t)
        elapsed = perf_counter() - t_start
        enough = trace or len(plain) >= MIN_PASSES
        if enough and elapsed * (1 + 1 / len(plain)) > seconds:
            break
    if not trace:
        while len(setups) < SETUP_STARTS:
            setups.append(start_worker(workload.warmup, [], False, deadline)[0])

    result = Result(env, plain, traced, setups, mismatches, {})
    result.computed = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(p.wall_s for p in plain),
        "fail_ratio": result.failed / result.attempted,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        **kind_metrics(plain),
    }
    if trace:
        result.computed.update(layers.layer_metrics(result.summaries))
        traced_wall = statistics.mean(t.wall_s for t in traced)
        result.computed["trace.wall_s"] = traced_wall
        result.computed["trace.untraced_wall_s"] = result.computed["wall_s"]
        result.computed["trace.overhead_s"] = traced_wall - result.computed["wall_s"]
    return result


def print_report(r: Result, units: dict[str, str]) -> None:
    env, c = r.env, r.computed
    print(
        f"perfbench {env['workload']} seed={env['seed']} trace={env['trace']} "
        f"commit={env['commit']} source_sha256={env['source_sha256'][:16]} "
        f"python={env['python']} mpmath={env['mpmath_backend']} nproc={env['nproc']}"
    )
    for i, p in enumerate(r.runs):
        label = "traced" if p.traced else "pass"
        print(
            f"{label} {i % len(r.plain) + 1}: {len(p.commands)} commands, wall {p.wall_s:.3f} s, "
            f"setup {p.setup_s:.3f} s, rss {p.peak_rss_mb:.1f} MB, stdout sha256 {p.digest}"
        )
        for cmd, failure in zip(p.commands, p.failures):
            if failure is not None:
                print(f"  FAILED {' '.join(cmd.argv)}: {failure}")
    print(f"fail_ratio counts {r.failed} of {r.attempted} commands ({r.mismatches} traced mismatches)")
    for name in REPORTED:
        shown = "n/a" if c[name] is None else f"{c[name]:.6g}"
        print(f"  {name:32s} {shown:>12s} {units.get(name, '')}")
    if r.traced:
        print(
            f"tracing overhead: traced wall {c['trace.wall_s']:.3f} s vs untraced "
            f"{c['wall_s']:.3f} s ({c['trace.overhead_s']:+.3f} s)"
        )
        for kind, shares in sorted(layers.kind_shares(r.summaries).items()):
            top = ", ".join(f"{fn} {share:.0%}" for fn, share in shares)
            print(f"  self time of {kind}: {top}")


def write_record(r: Result) -> Path:
    record = {
        **r.env,
        "passes": [
            {
                "traced": p.traced,
                "digest": p.digest,
                "setup_s": p.setup_s,
                "peak_rss_mb": p.peak_rss_mb,
                "commands": [
                    {"argv": list(c.argv), "seconds": s, "sha256": h, "failure": f}
                    for c, s, h, f in zip(p.commands, p.seconds, p.sha256, p.failures)
                ],
            }
            for p in r.runs
        ],
        "setup_starts_s": r.setups,
        "metrics": r.computed,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{r.env['workload']}-seed{r.env['seed']}-trace{r.env['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = perf_counter() + HARD_LIMIT_S
    if not (SRC / "ternpow" / "cli.py").is_file():
        print(f"perfbench: {SRC}/ternpow/cli.py not found; run from a ternpow checkout", file=sys.stderr)
        return 2
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in catalogue["end_to_end"] + catalogue["per_layer"]}
    wanted = catalogue["per_layer" if args.trace else "end_to_end"]
    env = {
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        r = measure(name, args.seed, args.seconds, bool(args.trace), deadline, env)
        print_report(r, units)
        print(f"record: {write_record(r).relative_to(ROOT)}")
        results.append(r)

    # one workload: metric names as in BENCHMARK.json; "all": prefixed by workload
    prefix = len(results) > 1
    metrics = {
        (f"{r.env['workload']}.{m['name']}" if prefix else m["name"]): {
            "value": r.computed[m["name"]] or 0.0,
            "unit": m["unit"],
        }
        for r in results
        for m in wanted
    }
    failed = sum(r.failed for r in results)
    attempted = sum(r.attempted for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
