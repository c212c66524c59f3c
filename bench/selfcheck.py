"""Quick self-check of the benchmark: every workload for a few jobs.

    python3 bench/selfcheck.py

Runs ``run.py`` on each workload of ``BENCHMARK.json`` for one second,
untraced and traced, and asserts that the last line names exactly the
declared end-to-end (resp. per-layer) metrics with their units, that every
value is a finite number, that no job failed, and that the traced run of
``finite-quotient`` counts calls into the ordered layer.  Takes about a
minute.
"""

import json
import math
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{label}: non-finite metric value")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: failed {result['failed']} of {result['attempted']} jobs")
            if trace and workload == "finite-quotient":
                for name in ("cli.cmd_ordered.calls", "ordered.verify_isomorphism.calls"):
                    if not result["metrics"][name]["value"] > 0:
                        problems.append(f"{label}: {name} is 0")
            print(f"{label}: {result['attempted']} jobs, {len(units)} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
