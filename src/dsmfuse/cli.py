"""Command-line front end.

Subcommands: ``hyperpower`` (enumerate or quotient a finite algebra),
``ordered`` (staircase isomorphism report), ``fuse-demo`` (the Gaussian
fusion experiment on [-1, 1]), ``fuse`` (combine two coefficient files) and
``belief`` (query a belief value).  Exit codes: 0 success, 1 usage, 2 input
parse error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import chebfusion as cf
from . import ordered, prebool

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        self.code = code
        super().__init__(message)


def _parse_center(text: str) -> tuple[float, float]:
    try:
        cx, cy = (float(v) for v in text.split(","))
    except ValueError:
        raise CliError(f"expected 'cx,cy', got {text!r}", EXIT_USAGE) from None
    return cx, cy


def cmd_hyperpower(args) -> int:
    universe = prebool.enumerate_hyperpower(args.n, max_atoms=args.max_atoms)
    if args.constraints:
        try:
            text = Path(args.constraints).read_text()
        except OSError as exc:
            raise CliError(str(exc), EXIT_PARSE) from None
        try:
            gamma = prebool.parse_constraints(text, args.n)
        except prebool.ParseError as exc:
            raise CliError(f"{args.constraints}: {exc}", EXIT_PARSE) from None
        elements = prebool.quotient(universe, gamma).representatives
    else:
        elements = universe
    for p in elements:
        print(prebool.format_proposition(p))
    print(f"count: {len(elements)}")
    return 0


def cmd_ordered(args) -> int:
    report = ordered.verify_isomorphism(args.n, max_atoms=args.max_atoms)
    print(f"classes: {report.class_count}")
    print(f"staircases: {report.staircase_count}")
    for problem in report.counterexamples:
        print(f"counterexample: {problem}")
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else EXIT_NUMERIC


def cmd_fuse_demo(args) -> int:
    start = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    mm1 = cf.fit(cf.gaussian(*args.gauss1), args.degree)
    mm2 = cf.fit(cf.gaussian(*args.gauss2), args.degree)
    m1 = cf.normalize(mm1)
    m2 = cf.normalize(mm2)
    fused = cf.fuse(m1, m2)
    b1 = cf.belief_surface(m1)
    b2 = cf.belief_surface(m2)
    bf = cf.belief_surface(fused)

    surfaces = {
        "mm1": mm1, "mm2": mm2, "m1": m1, "m2": m2,
        "b1": b1, "b2": b2, "m1+m2": fused, "b1+b2": bf,
    }
    for name, d in surfaces.items():
        cf.save_grid(d, out / f"{name}.grid", g=args.grid)
        cf.save_coeffs(d, out / f"{name}.cheb")

    # The probe step is 2/255, so its argmax is good to two decimals only.
    probe = np.linspace(-1, 1, 256)
    values = cf.evaluate(fused, probe[:, None], probe[None, :])
    i, j = np.unravel_index(np.argmax(values), values.shape)
    elapsed = time.perf_counter() - start
    print(
        f"mass m1={cf.integral_full(m1):.9f} m2={cf.integral_full(m2):.9f} "
        f"fused={cf.integral_full(fused):.9f} "
        f"argmax=({probe[i]:.2f}, {probe[j]:.2f}) "
        f"elapsed={elapsed:.2f}s"
    )
    return 0


def cmd_fuse(args) -> int:
    try:
        m1 = cf.load_coeffs(args.first)
        m2 = cf.load_coeffs(args.second)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_PARSE) from None
    try:
        fused = cf.fuse(m1, m2)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_NUMERIC) from None
    cf.save_coeffs(fused, args.out)
    print(f"wrote {args.out} (integral {cf.integral_full(fused):.9f})")
    return 0


def cmd_belief(args) -> int:
    try:
        m = cf.load_coeffs(args.bba)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_PARSE) from None
    try:
        value = cf.belief(m, cf.GeneralizedInterval(args.lo, args.hi))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_NUMERIC) from None
    print(f"{value:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dsmfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hyperpower", help="enumerate a free or constrained algebra")
    p.add_argument("-n", type=int, required=True, help="number of atoms")
    p.add_argument("-c", "--constraints", help="constraint file, one '<expr> = <expr>' per line")
    p.add_argument("--max-atoms", type=int, default=prebool.DEFAULT_ATOM_GUARD)
    p.set_defaults(func=cmd_hyperpower)

    p = sub.add_parser("ordered", help="verify the staircase isomorphism")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-atoms", type=int, default=4)
    p.set_defaults(func=cmd_ordered)

    p = sub.add_parser("fuse-demo", help="run the Gaussian fusion experiment")
    p.add_argument("--degree", type=int, default=128)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--gauss1", type=_parse_center, default=(-1.0, 0.0))
    p.add_argument("--gauss2", type=_parse_center, default=(0.0, 1.0))
    p.add_argument("--out", default="demo-out")
    p.set_defaults(func=cmd_fuse_demo)

    p = sub.add_parser("fuse", help="fuse two coefficient files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("belief", help="belief of a generalized interval")
    p.add_argument("bba", help="coefficient file of a normalized density")
    p.add_argument("lo", type=float)
    p.add_argument("hi", type=float)
    p.set_defaults(func=cmd_belief)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
