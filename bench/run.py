"""Benchmark of dsmfuse's finite and spectral engines.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One closed-loop client runs the
workload's jobs back to back in one fresh process for ``--seconds`` seconds,
with BLAS/OpenMP threads capped at the number of usable cores.  Inputs come
from ``--seed`` only; every job's output is checked outside the timed region
and a job whose check fails, raises or exits nonzero counts as failed.

A shared virtual machine's speed can drift by a third between phases
lasting tens of seconds to minutes, which would swamp a change of a few per
cent.  So every end-to-end time is rescaled to a reference speed: a fixed pure-Python loop
(``worker.calibrate``, no dsmfuse code) is timed right before each job and
after each set-up.  A job time ``t`` measured next to a loop that took ``c``
seconds is reported as ``t * CAL_REF_S / c``.  Importing numpy and scipy
drifts apart from that loop, so right before each set-up process another
fresh one times importing just them, and ``import dsmfuse.cli`` is scaled to
IMPORT_REF_S by that time.  The rest of the set-up is scaled by the median
loop time over the whole run.  A change to dsmfuse moves the reported times
by as much as it moves the raw ones; raw times are kept in the result
record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: job
median, tail (the highest percentile with ten jobs beyond it) and
throughput, ``setup_s`` and ``import_s`` (medians over 2 * SIDE_RUNS + 1
fresh interpreters, the middle one of which runs the jobs) and peak memory.
(``failed_frac`` is printed but is not a metric, since a metric is never 0.)
``--trace 1`` reports its per-layer metrics: it wraps the public functions
of each module; odd jobs run traced and even ones untraced, and the two
halves give the tracing overhead.  Layer times are raw, not rescaled.  Spans are written to
``bench/out/spans-<workload>.jsonl`` and every result, with the machine it
ran on, to ``bench/out/<workload>-seed<n>-trace<t>.json``.

Every metric is printed as ``name value unit``; the last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``python3 bench/selfcheck.py`` runs every workload briefly and checks the
output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SIDE_RUNS = 2  # fresh set-up processes on each side of the jobs
DEADLINE_S = 170
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"]
TAIL_BEYOND = 10
CAL_REF_S = 0.010  # the calibration loop's time at the reference speed
IMPORT_REF_S = 0.5  # importing numpy and scipy.fft at the reference speed


def declared_units(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, str(nproc)))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, env, deadline: float) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to ready, its report)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), mode]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark deadline passed before the worker started")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker exceeded the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - spawned, report


def spawn_pair(args, mode: str, env, deadline: float) -> tuple[float, float, dict]:
    """A reference import process, then a worker: (reference import s, ready s, report)."""
    _ready_s, reference = spawn(args, "reference", env, deadline)
    return (reference["import_s"], *spawn(args, mode, env, deadline))


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND jobs beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    units = declared_units(args.trace)
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)

    # Set-up is timed in fresh processes on both sides of the job phase, so
    # one slow stretch of a shared machine cannot sway every sample.
    before = [spawn_pair(args, "setup", env, deadline) for _ in range(SIDE_RUNS)]
    jobs_process = spawn_pair(args, "jobs", env, deadline)
    after = [spawn_pair(args, "setup", env, deadline) for _ in range(SIDE_RUNS)]
    processes = before + [jobs_process] + after
    report = jobs_process[2]
    jobs = report["jobs"]
    # Each process sets up once, so its own few calibration samples are a
    # noisy gauge; the median over every sample of the run is a steadier one.
    calibs = [c for _ref, _s, r in processes for c in r["calib_s"]] + [c for _ms, _t, c in jobs]
    calib_s = statistics.median(calibs)
    imports = [r["import_s"] * IMPORT_REF_S / ref for ref, _s, r in processes]
    setups = [(s - r["import_s"]) * CAL_REF_S / calib_s + imported
              for (_ref, s, r), imported in zip(processes, imports)]

    attempted = len(jobs)
    failed = sum(ms is None for ms, _traced, _calib in jobs)
    for error in report["errors"]:
        print(error, file=sys.stderr)
    untraced = [ms * CAL_REF_S / calib for ms, traced, calib in jobs
                if ms is not None and not traced]
    traced = [ms * CAL_REF_S / calib for ms, traced, calib in jobs if ms is not None and traced]
    if not untraced:
        raise SystemExit(f"all {attempted} jobs failed")

    machine = {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        **report["versions"],
        "threads": {var: env[var] for var in THREAD_VARS},
    }
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"machine {json.dumps(machine)}")

    p50 = statistics.median(untraced)
    tail_ms, tail_pct = tail(untraced)
    values = {
        "job_p50_ms": p50,
        "job_tail_ms": tail_ms,
        "jobs_per_s": 1e3 * len(untraced) / sum(untraced),
        "setup_s": statistics.median(setups),
        "import_s": statistics.median(imports),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if args.trace:
        values.update(report["layers"])
        values["trace.job_p50_ms"] = statistics.median(traced)
        values["trace.overhead_pct"] = 100.0 * (values["trace.job_p50_ms"] / p50 - 1)
    print(f"# times at the reference speed (calibration loop {1e3 * CAL_REF_S:g} ms; here "
          f"{1e3 * calib_s:.4g} ms); job times are over {len(untraced)} untraced jobs, "
          f"job_tail_ms is their p{tail_pct:.1f}; setup_s and import_s are medians of "
          f"{len(setups)} fresh processes")

    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = os.path.join(BENCH, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"machine": machine, "metrics": metrics,
                   "processes": [{"reference_import_s": ref, "ready_s": s, **r}
                                 for ref, s, r in processes]}, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
