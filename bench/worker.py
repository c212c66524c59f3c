"""One workload process, started fresh by ``run.py``.

    python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1> <reference|setup|jobs>

In ``reference`` mode it only times importing the third-party modules that
dsmfuse uses, which gives the host's import speed at that moment.  Otherwise
it times ``import dsmfuse.cli`` before importing anything else of weight (no
numpy, no scipy), runs the workload's set-up and notes the CLOCK_MONOTONIC
instant it is ready.  It then times the calibration loop ``CAL_ROUNDS``
times, which gives the host's speed at that moment, and stops there in
``setup`` mode.  In ``jobs`` mode it then runs jobs back to back for
``seconds``, timing the calibration loop before each job and checking each
output, both outside the timed region; with trace 1, odd-numbered jobs run
traced and even-numbered ones untraced, so the tracing overhead is measured
in the same process.  The last line of stdout is one JSON object for
``run.py``.
"""

import json
import os
import sys
import time

CAL_ROUNDS = 5


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that uses no part of dsmfuse."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(60000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def main() -> int:
    name, seed, seconds, trace, mode = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    bench = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench), "src")

    start = time.perf_counter()
    if mode == "reference":
        import numpy.polynomial.chebyshev
        import scipy.fft

        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        print(json.dumps({"ready": ready, "import_s": time.perf_counter() - start}))
        return 0
    import dsmfuse.cli

    import_s = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(dsmfuse.cli.__file__))
    if where != os.path.join(src, "dsmfuse"):
        print(f"dsmfuse was imported from {where}, not from {src}", file=sys.stderr)
        return 2

    import resource
    import shutil

    import tracing
    import workloads

    workdir = os.path.join(bench, "out", f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.run("setup", workload.setup)
        else:
            workload.setup()
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        calib_s = [calibrate() for _ in range(CAL_ROUNDS)]
        result = {"ready": ready, "import_s": import_s, "calib_s": calib_s}
        if mode == "jobs":
            result.update(run_jobs(workload, tracer, seconds))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            import numpy
            import scipy

            result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
            if tracer:
                tracer.write(os.path.join(bench, "out", f"spans-{name}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_jobs(workload, tracer, seconds) -> dict:
    import traceback

    import tracing

    workload.prepare()
    # A traced run alternates untraced and traced jobs and needs the first
    # COUNT_INPUTS traced ones for its exact counts.
    min_jobs = 2 * tracing.COUNT_INPUTS if tracer else 1
    jobs = []  # (latency ms or None if failed, traced, calibration s just before)
    errors = []
    end = time.perf_counter() + seconds
    i = 0
    while i < min_jobs or time.perf_counter() < end:
        inp = workload.make_input(i)
        traced = tracer is not None and i % 2 == 1
        calib = calibrate()
        start = time.perf_counter()
        try:
            out = tracer.run(i, workload.run, inp) if traced else workload.run(inp)
            latency = time.perf_counter() - start
            workload.check(inp, out)
            jobs.append((1e3 * latency, traced, calib))
        except Exception:  # a failed job is counted and reported; the run goes on
            jobs.append((None, traced, calib))
            if len(errors) < 3:
                errors.append(f"job {i}: {traceback.format_exc()}")
        i += 1
    result = {"jobs": jobs, "errors": errors}
    if tracer:
        ok = [j for j, (ms, traced, _calib) in enumerate(jobs) if traced and ms is not None]
        result["layers"] = tracer.summary(ok, [j for j in ok if j < min_jobs])
    return result


if __name__ == "__main__":
    sys.exit(main())
