"""The four benchmark workloads: seeded inputs, the timed job, and its check.

Each workload is one client issuing its next job only after the last one
completes.  A workload object has five steps, and only ``run`` is timed:

* ``setup()``      -- the program's fixed set-up, paid once per process and
                      counted in ``setup_s``;
* ``prepare()``    -- the benchmark's own preparation (paths, oracle tables),
                      after the process is ready;
* ``make_input(i)`` -- job ``i``'s input, derived from (workload, seed, i)
                      alone, so the same seed always yields the same inputs;
* ``run(inp)``     -- the job: calls into dsmfuse only;
* ``check(inp, out)`` -- raises :class:`CheckFailed` if the output is wrong.

Why these four: ``finite-quotient`` is dominated by the congruence closure,
``finite-fusion`` keeps quotient construction in set-up so belief fusion,
belief tables and inversion dominate, ``spectral-fuse`` is dominated by the
degree-512 fusion grid, and ``spectral-cli`` by the text writers, the reader
and scalar evaluation at degree 128 (fusion is a small share there).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction

N_ATOMS = 4


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def job_rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    from dsmfuse import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def require_exit_zero(argv: list[str], result: tuple[int, str, str]) -> None:
    code, _out, err = result
    require(code == 0, f"{' '.join(argv)} exited {code}: {err.strip()}")


# --- finite engine ---------------------------------------------------------


def truth_table(clauses) -> int:
    """Bit S is set iff the atom set S satisfies some clause (S contains it)."""
    return sum(1 << s for s in range(1 << N_ATOMS) if any(c & s == c for c in clauses))


def clause_text(clauses) -> str:
    return " | ".join(
        "(" + " & ".join(f"a{i}" for i in range(N_ATOMS) if c >> i & 1) + ")"
        for c in sorted(clauses)
    )


class Workload:
    """Defaults for the four steps; ``make_input``, ``run`` and ``check`` are per workload."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass


ORDER_CONSTRAINTS = [
    ((1 << i | 1 << j | 1 << k,), (1 << i | 1 << k,))
    for i in range(N_ATOMS) for j in range(i, N_ATOMS) for k in range(j, N_ATOMS)
]
README_PAIR = [((0b011,), (0b101,)), ((0b101,), (0b110,))]


class FiniteQuotient(Workload):
    """``hyperpower -n 4 -c <file>`` on seeded constraint files, plus ``ordered -n 4``.

    Jobs cycle through a fixed mix so every seed has the same proportions:
    the order constraints, the README pair lifted to n=4, 1 to 4 random
    equations between non-trivial elements, and the ordered report.
    """

    KINDS = ("order", "readme", 1, 2, 3, 4, "ordered")

    def prepare(self) -> None:
        from dsmfuse import prebool

        self.path = os.path.join(self.workdir, "gamma.txt")
        self.universe = prebool.enumerate_hyperpower(N_ATOMS)
        self.tables = [truth_table(p.clauses) for p in self.universe]
        self.nontrivial = [tuple(p.clauses) for p in self.universe if not (p.is_bottom or p.is_top)]

    def make_input(self, i: int):
        kind = self.KINDS[i % len(self.KINDS)]
        if kind == "ordered":
            return kind, None
        rng = job_rng("finite-quotient", self.seed, i)
        if kind == "order":
            pairs = list(ORDER_CONSTRAINTS)
        elif kind == "readme":
            pairs = list(README_PAIR)
        else:
            pairs = [(rng.choice(self.nontrivial), rng.choice(self.nontrivial)) for _ in range(kind)]
        rng.shuffle(pairs)
        with open(self.path, "w") as fh:
            fh.writelines(f"{clause_text(p)} = {clause_text(q)}\n" for p, q in pairs)
        return kind, pairs

    def run(self, inp):
        kind, _pairs = inp
        if kind == "ordered":
            return call_cli(["ordered", "-n", str(N_ATOMS)])
        return call_cli(["hyperpower", "-n", str(N_ATOMS), "-c", self.path])

    def check(self, inp, out) -> None:
        from dsmfuse import prebool

        kind, pairs = inp
        require_exit_zero([str(kind)], out)
        lines = out[1].splitlines()
        if kind == "ordered":
            require(lines == ["classes: 41", "staircases: 41", "PASS"], f"ordered printed {lines}")
            return
        require(lines[-1] == f"count: {len(lines) - 1}", f"{lines[-1]!r} after {len(lines) - 1} lines")
        # Independent oracle (Birkhoff duality): the least congruence holding
        # every pair identifies x and y iff their truth tables agree outside
        # the bits where some pair's tables differ.
        mask = 0
        for p, q in pairs:
            mask |= truth_table(p) ^ truth_table(q)
        reps = {}
        for p, table in zip(self.universe, self.tables):
            reps.setdefault(table & ~mask, p)
        expected = [prebool.format_proposition(p) for p in reps.values()]
        require(lines[:-1] == expected, f"{len(lines) - 1} classes printed, oracle has {len(expected)}")


class FiniteFusion(Workload):
    """Fuse, tabulate and invert seeded ``Fraction`` BBAs on prebuilt algebras.

    Set-up builds the free algebra on 4 atoms (168 classes) and its order
    quotient (43 classes).  Each job draws two BBAs on each algebra, with 8
    to 48 focal elements (at most 41 on the quotient, which has no more
    non-trivial classes), and runs ``FiniteBba``, ``fuse``, ``bel_table`` and
    ``bba_from_bel`` on both pairs.
    """

    def setup(self) -> None:
        from dsmfuse import ordered, prebool

        self.free = prebool.free_algebra(N_ATOMS)
        self.order = prebool.quotient(self.free.universe, ordered.order_constraints(N_ATOMS))

    def prepare(self) -> None:
        self.choices = [
            (alg, [p for p in alg.representatives if p not in (alg.bottom, alg.top)])
            for alg in (self.free, self.order)
        ]

    def make_input(self, i: int):
        rng = job_rng("finite-fusion", self.seed, i)
        inp = []
        for alg, reps in self.choices:
            masses = []
            for _ in range(2):
                focal = rng.sample(reps, rng.randint(8, min(48, len(reps))))
                weights = [rng.randint(1, 64) for _ in focal]
                total = sum(weights)
                masses.append({p: Fraction(w, total) for p, w in zip(focal, weights)})
            inp.append((alg, *masses))
        return inp

    def run(self, inp):
        from dsmfuse import belief

        out = []
        for alg, mass1, mass2 in inp:
            fused = belief.fuse(belief.FiniteBba(alg, mass1), belief.FiniteBba(alg, mass2))
            out.append((fused, belief.bba_from_bel(alg, belief.bel_table(fused))))
        return out

    def check(self, inp, out) -> None:
        from dsmfuse import prebool

        for (alg, mass1, mass2), (fused, inverted) in zip(inp, out):
            require(inverted == fused, "bba_from_bel(bel_table(f)) != f")
            values = list(fused.mass.values())
            require(all(type(v) is Fraction for v in values), "non-Fraction mass")
            require(sum(values) == 1, f"total mass {sum(values)}")
            oracle: dict = {}
            for p1, v1 in mass1.items():
                for p2, v2 in mass2.items():
                    key = alg.class_of(prebool.meet(p1, p2))
                    oracle[key] = oracle.get(key, 0) + v1 * v2
            require(oracle == dict(fused.mass), "fused masses differ from the pairwise-meet oracle")


# --- spectral engine -------------------------------------------------------


def _centre(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(-1, 1), rng.uniform(-1, 1)


class SpectralFuse(Workload):
    """Degree 512: ``fit``, ``normalize`` x2, ``fuse``, ``belief_surface`` and 4
    point beliefs on seeded Gaussian centres; no file I/O."""

    DEGREE = 512
    BELIEFS = 4

    def make_input(self, i: int):
        rng = job_rng("spectral-fuse", self.seed, i)
        centres = (_centre(rng), _centre(rng))
        return centres, [_centre(rng) for _ in range(self.BELIEFS)]

    def run(self, inp):
        from dsmfuse import chebfusion as cf

        centres, intervals = inp
        m1, m2 = (cf.normalize(cf.fit(cf.gaussian(*c), self.DEGREE)) for c in centres)
        fused = cf.fuse(m1, m2)
        surface = cf.belief_surface(fused)
        values = [cf.belief(fused, cf.GeneralizedInterval(lo, hi)) for lo, hi in intervals]
        return fused, surface, values

    def check(self, inp, out) -> None:
        import numpy as np
        from dsmfuse import chebfusion as cf

        fused, _surface, _values = out
        require(bool(np.all(np.isfinite(fused.coeffs))), "non-finite fused coefficient")
        total = cf.integral_full(fused)
        require(abs(total - 1) <= 1e-9, f"fused integral {total!r}")
        corner = cf.belief(fused, cf.GeneralizedInterval(-1, 1))
        require(abs(corner - 1) <= 1e-9, f"corner belief {corner!r}")


class SpectralCli(Workload):
    """Degree 128 through ``cli.main``: ``fuse-demo`` on seeded centres, ``fuse``
    of its two normalized ``.cheb`` files, then 8 ``belief`` queries."""

    DEGREE = 128
    QUERIES = 8

    def prepare(self) -> None:
        self.demo = os.path.join(self.workdir, "demo")
        self.fused = os.path.join(self.workdir, "fused.cheb")

    def make_input(self, i: int):
        rng = job_rng("spectral-cli", self.seed, i)
        gauss = ["{:.6f},{:.6f}".format(*_centre(rng)) for _ in range(2)]
        queries = [tuple(f"{v:.6f}" for v in _centre(rng)) for _ in range(self.QUERIES)]
        return gauss, queries

    def argvs(self, inp) -> list[list[str]]:
        (g1, g2), queries = inp
        return [
            ["fuse-demo", "--degree", str(self.DEGREE), f"--gauss1={g1}", f"--gauss2={g2}",
             "--out", self.demo],
            ["fuse", os.path.join(self.demo, "m1.cheb"), os.path.join(self.demo, "m2.cheb"),
             "--out", self.fused],
        ] + [["belief", self.fused, "--", lo, hi] for lo, hi in queries]

    def run(self, inp):
        return [call_cli(argv) for argv in self.argvs(inp)]

    def check(self, inp, out) -> None:
        from dsmfuse import chebfusion as cf

        for argv, result in zip(self.argvs(inp), out):
            require_exit_zero(argv, result)
        density = cf.load_coeffs(self.fused)
        for (lo, hi), (_code, text, _err) in zip(inp[1], out[2:]):
            printed = float(text)
            require(-1e-9 <= printed <= 1 + 1e-9, f"belief {printed!r} outside [0, 1]")
            direct = cf.belief(density, cf.GeneralizedInterval(float(lo), float(hi)))
            require(math.isclose(printed, direct, rel_tol=0, abs_tol=1e-12),
                    f"printed belief {printed!r} vs in-process {direct!r}")


WORKLOADS = {
    "finite-quotient": FiniteQuotient,
    "finite-fusion": FiniteFusion,
    "spectral-fuse": SpectralFuse,
    "spectral-cli": SpectralCli,
}
