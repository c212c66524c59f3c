"""Spans around the public functions of dsmfuse, recorded from outside.

:class:`Tracer` replaces the entry points listed in ``WRAPPED`` with wrappers
that record one span per call: name, start, end, parent span and job id.
Spans are kept in memory; :meth:`Tracer.write` dumps them as JSON lines and
:meth:`Tracer.summary` turns them into per-job ``calls`` / ``total_ms`` /
``self_ms`` figures, where self time is a span's duration minus that of its
direct children.  Wrappers are installed only while a traced job (or the
traced set-up) runs, so untraced jobs in the same process call the original
functions directly.

The hot leaf operations (``prebool.meet/join/leq``, ``Quotient.meet/join/
class_of``) are deliberately left alone: they run about 10^5 times per job and
a wrapper there would mostly measure itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# "<module>.<attribute path>" inside the dsmfuse package.
WRAPPED = [
    "prebool.enumerate_hyperpower",
    "prebool.parse_constraints",
    "prebool.Quotient.__init__",
    "prebool.format_proposition",
    "belief.FiniteBba.__init__",
    "belief.fuse",
    "belief.bel",
    "belief.bel_table",
    "belief.bba_from_bel",
    "ordered.verify_isomorphism",
    "ordered.smile",
    "ordered.enumerate_staircases",
    "chebfusion.fit",
    "chebfusion.normalize",
    "chebfusion.fuse",
    "chebfusion.cumulative",
    "chebfusion.belief_surface",
    "chebfusion.belief",
    "chebfusion.evaluate",
    "chebfusion.integral_full",
    "chebfusion.save_coeffs",
    "chebfusion.load_coeffs",
    "chebfusion.save_grid",
    "cli.cmd_hyperpower",
    "cli.cmd_ordered",
    "cli.cmd_fuse_demo",
    "cli.cmd_fuse",
    "cli.cmd_belief",
]
_RENAMED = {
    "prebool.Quotient.__init__": "prebool.quotient",
    "belief.FiniteBba.__init__": "belief.FiniteBba",
}
SPANS = [_RENAMED.get(w, w) for w in WRAPPED]

COUNT_INPUTS = 7
"""Calls and counts cover the first this-many traced inputs, each once, so
they repeat exactly for a given seed however many jobs the run completes.
Traced jobs are the odd ones, 1 to 13 here, which on ``finite-quotient``
cover each of its seven job kinds once."""


def _quotient_sizes(args, result):
    q, universe, _gamma = args
    return {
        "prebool.quotient.universe": len(universe),
        "prebool.quotient.classes": len(q.representatives),
    }


def _focal(args, result):
    m1, m2 = args
    return {
        "belief.fuse.focal_pairs": len(m1.mass) * len(m2.mass),
        "belief.fuse.focal_out": len(result.mass),
    }


def _points(args, result):
    import numpy as np

    _d, x, y = args
    return {"chebfusion.evaluate.points": np.broadcast(np.asarray(x), np.asarray(y)).size}


def _bytes_written(args, result):
    return {"chebfusion.io.bytes_written": os.path.getsize(args[1])}


def _bytes_read(args, result):
    return {"chebfusion.io.bytes_read": os.path.getsize(args[0])}


# Counters read the call's arguments and result after it returns; file sizes
# come from the file system, not from the program.
COUNTERS = {
    "prebool.quotient": _quotient_sizes,
    "belief.fuse": _focal,
    "chebfusion.evaluate": _points,
    "chebfusion.save_coeffs": _bytes_written,
    "chebfusion.save_grid": _bytes_written,
    "chebfusion.load_coeffs": _bytes_read,
}
COUNTS = [
    "prebool.quotient.universe",
    "prebool.quotient.classes",
    "belief.fuse.focal_pairs",
    "belief.fuse.focal_out",
    "chebfusion.evaluate.points",
    "chebfusion.io.bytes_written",
    "chebfusion.io.bytes_read",
]
# Spans timed inside the workload's fixed set-up (not inside any job).
SETUP_SPANS = ["prebool.enumerate_hyperpower", "prebool.quotient"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent index, job)
        self.counts: dict[object, dict[str, int]] = {}
        self._stack: list[int] = []
        self._job: object = None
        self._patches = []  # (owner, attribute, original, wrapper)
        for path, name in zip(WRAPPED, SPANS):
            module, *attrs = path.split(".")
            owner = importlib.import_module(f"dsmfuse.{module}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            orig = getattr(owner, attrs[-1])
            wrapper = self._wrap(orig, name, COUNTERS.get(name))
            self._patches.append((owner, attrs[-1], orig, wrapper))

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._job)
            if counter is not None:
                job_counts = self.counts.setdefault(self._job, {})
                for key, value in counter(args, result).items():
                    job_counts[key] = job_counts.get(key, 0) + value
            return result

        return wrapper

    def run(self, job, fn, *args):
        """Call ``fn(*args)`` under a root span named ``job``, wrappers installed."""
        self._job = job
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self._wrap(fn, "job", None)(*args)
        finally:
            for owner, attr, orig, _wrapper in self._patches:
                setattr(owner, attr, orig)
            self._job = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")

    def summary(self, jobs: list[int], counted_jobs: list[int]) -> dict[str, float]:
        """Per-job means: times over ``jobs``, calls and counts over ``counted_jobs``."""
        child_s = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        timed = set(jobs)
        counted = set(counted_jobs)
        calls = dict.fromkeys(SPANS + ["job"], 0)
        total = dict.fromkeys(calls, 0.0)
        own = dict.fromkeys(calls, 0.0)
        setup = dict.fromkeys(SETUP_SPANS, 0.0)
        for index, (name, start, end, _parent, job) in enumerate(self.spans):
            if job == "setup" and name in setup:
                setup[name] += end - start
            if job in counted:
                calls[name] += 1
            if job in timed:
                total[name] += end - start
                own[name] += end - start - child_s[index]
        n_timed, n_counted = max(len(timed), 1), max(len(counted), 1)
        out = {}
        for name in calls:
            if name != "job":
                out[f"{name}.calls"] = calls[name] / n_counted
            out[f"{name}.total_ms"] = 1e3 * total[name] / n_timed
            out[f"{name}.self_ms"] = 1e3 * own[name] / n_timed
        for key in COUNTS:
            out[key] = sum(self.counts.get(j, {}).get(key, 0) for j in counted) / n_counted
        for name, seconds in setup.items():
            out[f"setup.{name}.total_ms"] = 1e3 * seconds
        return out
