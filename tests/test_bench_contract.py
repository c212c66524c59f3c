"""The benchmark's finite workloads run and pass their checks on this tree.

``bench/`` is kept fixed between benchmark changes, so what it calls in
dsmfuse (``Quotient(universe, gamma)``, its attributes, ``free_algebra``,
``quotient`` and the CLI's output) must keep working.  This runs a few jobs
of each finite workload as the benchmark worker does, the odd ones and the
set-up under the tracer, each job followed by its check.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracing = load("tracing")


def run_workload(name, jobs, workdir):
    workload = workloads.WORKLOADS[name](seed=1, workdir=str(workdir))
    tracer = tracing.Tracer()
    tracer.run("setup", workload.setup)
    workload.prepare()
    for i in range(jobs):
        inp = workload.make_input(i)
        out = tracer.run(i, workload.run, inp) if i % 2 else workload.run(inp)
        workload.check(inp, out)
    return tracer


def test_finite_quotient_jobs_pass_their_checks(tmp_path):
    # Seven jobs cover each job kind once: order, README pair, 1 to 4
    # random equations and the ordered report.
    run_workload("finite-quotient", 7, tmp_path)


def test_finite_fusion_jobs_pass_and_setup_counts(tmp_path):
    # Set-up builds the free algebra on 4 atoms (168 classes) and its order
    # quotient (43), both over the 168-member universe.
    counts = run_workload("finite-fusion", 2, tmp_path).counts["setup"]
    assert counts["prebool.quotient.universe"] == 336
    assert counts["prebool.quotient.classes"] == 211
