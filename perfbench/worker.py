"""One fresh, single-threaded process of the benchmark.

Started by run.py as ``python3 perfbench/worker.py '<request JSON>'`` with
``src`` on PYTHONPATH.  The request holds a warm-up argv, the argv lists to
time, and whether to trace.  The worker imports ``ternpow.cli``, answers the
warm-up command, prints ``ready``, optionally installs the layer wrappers,
then calls ``ternpow.cli.dispatch`` on each argv in turn (closed loop) and
prints one JSON line: each command's seconds, exit code, stdout and error,
the process's peak RSS, its environment, and the spans when traced.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time


def main() -> None:
    request = json.loads(sys.argv[1])
    import mpmath
    import ternpow
    from ternpow import cli

    cli.dispatch(request["warmup"])
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    tracer = None
    if request["trace"]:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    results = []
    for argv in request["commands"]:
        text, code, error = "", 0, None
        t0 = time.perf_counter()
        try:
            text, code = cli.dispatch(argv)
        except SystemExit as exc:
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # a failed command is counted, not fatal
            code, error = 2, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        results.append({"seconds": seconds, "code": code, "stdout": text, "error": error})

    reply = {
        "commands": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "ternpow_file": ternpow.__file__,
        "spans": tracer.spans if tracer else None,
    }
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
