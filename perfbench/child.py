"""One command of a benchmark pass, run in a fresh interpreter.

    python3 perfbench/child.py '<json spec>' [--trace]

The spec's "kind" is "import" (set-up only), "cli" (run ``bernkit.cli.main``
on "argv") or "routes" (call the S routes on "calls" and print every result
as JSON).  With ``--trace``, the tracer is installed before the command runs.

Untraced, the child samples the host's speed while it runs: it times a fixed
calibration at once and then every ``SAMPLE_PERIOD_S`` from a timer signal.
The host this was written on switches between a fast and a slow state within
a fraction of a second, faster than a command runs, so only samples taken
during the command tell how fast the host was for it.  The time spent in the
sampler is reported and taken out of every time the child reports.

The child writes a record as the last line of stderr: the CLOCK_MONOTONIC
time at which ``import bernkit`` returned, its peak resident set size, its
exit code, the sampler's figures and, when traced, the trace record.  The
parent subtracts its own CLOCK_MONOTONIC reading taken just before the spawn
to get the set-up time.
"""

import signal
import sys
import time
from fractions import Fraction  # bernkit imports it too

TRACED = "--trace" in sys.argv[2:]
SAMPLE_PERIOD_S = 0.025
# two 10-term polynomials whose coefficients have numerators and denominators
# of up to about 100 bits, like the operands of bernkit's polynomial products;
# their product takes about 1 ms
CALIB_A = [Fraction(7 * i + 1, i + 3) ** 12 for i in range(10)]
CALIB_B = [Fraction(3 * i + 2, 2 * i + 5) ** 12 for i in range(10)]
samples = []
sampler_s = 0.0


def sample(*_signal_args) -> None:
    """Time one calibration; uses only the standard library, never bernkit,
    so a change to bernkit cannot move it."""
    global sampler_s
    start = time.perf_counter()
    out = [Fraction(0)] * (len(CALIB_A) + len(CALIB_B) - 1)
    for i, a in enumerate(CALIB_A):
        for j, b in enumerate(CALIB_B):
            out[i + j] += a * b
    samples.append(time.perf_counter() - start)
    sampler_s += time.perf_counter() - start


if not TRACED:
    sample()        # the first run of the code is slower: a warm-up only
    samples.clear()
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

import bernkit  # noqa: E402,F401  (this import is the set-up being timed)

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)
SAMPLER_AT_IMPORT = sampler_s

import json  # noqa: E402
import resource  # noqa: E402

RECORD_PREFIX = "perfbench-record "


def run_routes(calls) -> int:
    from bernkit import convolution
    out = []
    for n, k, route in calls:
        fn = getattr(convolution, f"s_{route}")
        t0, s0 = time.perf_counter(), sampler_s
        p = fn(n, k)
        elapsed = time.perf_counter() - t0 - (sampler_s - s0)
        out.append({"n": n, "k": k, "route": route, "s": elapsed,
                    "coeffs": [f"{c.numerator}/{c.denominator}"
                               for c in p.coeffs]})
    print(json.dumps(out))
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if TRACED:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    code = 0
    if spec["kind"] == "cli":
        from bernkit import cli
        code = cli.main(spec["argv"])
    elif spec["kind"] == "routes":
        code = run_routes(spec["calls"])
    sys.stdout.flush()
    signal.setitimer(signal.ITIMER_REAL, 0)
    record = {"imported": IMPORTED, "code": code,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "sampler_at_import_s": SAMPLER_AT_IMPORT,
              "sampler_s": sampler_s, "samples": len(samples),
              "sample_mean_s": sum(samples) / len(samples) if samples else None}
    if tracer is not None:
        record["trace"] = tracer.finish()
    sys.stderr.write(RECORD_PREFIX + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
