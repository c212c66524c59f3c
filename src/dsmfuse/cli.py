"""Command-line front end.

Subcommands: ``hyperpower`` (enumerate or quotient a finite algebra),
``ordered`` (staircase isomorphism report), ``fuse-demo`` (the Gaussian
fusion experiment on [-1, 1]), ``fuse`` (combine two coefficient files) and
``belief`` (query a belief value).  Exit codes: 0 success, 1 usage, 2 input
parse error, 3 numeric failure, including an allocation that fails.  The
spectral subcommands print no numpy warnings: a failure is one error line.

A bad option value is a usage error and exits 1, whether argparse or the
library finds it: among others an ``-n`` above ``--max-atoms``, a
``--max-atoms`` below 1, a ``belief`` endpoint outside [-1, 1] or NaN, and a
non-finite ``fuse-demo`` centre.

Each subcommand imports only what it runs: ``hyperpower``, ``ordered`` and
``belief`` load no numpy, and ``fuse`` and ``fuse-demo`` load numpy alone,
through :mod:`dsmfuse.chebfusion`.

Dispatch: each subcommand has one function adding its arguments, and
:func:`build_parser` assembles the full tree from them.  :func:`main` builds
only the parser of the subcommand that ``argv[0]`` names, which reads the
rest of ``argv`` as the tree's subparsers action would.  The full tree is
built only when the top level must answer: no arguments, ``-h``, an unknown
command, or arguments the subcommand leaves over, which the tree reports as
unrecognized.  Nothing is kept from one :func:`main` call to the next, and
each parser names its ``cmd_*`` function when it is built, so a ``cmd_*``
replaced on this module is the one called.

Imports: this module loads argparse and no engine, and each ``cmd_*`` and
argument builder imports its engine when it runs.  ``hyperpower`` loads
:mod:`dsmfuse.prebool` alone, ``ordered`` loads it and :mod:`dsmfuse.ordered`,
``fuse`` and ``fuse-demo`` load :mod:`dsmfuse.chebfusion`, and ``belief``
:mod:`dsmfuse.chebseries` alone; none loads the finite engine.  Each of them
also loads :mod:`dsmfuse._values`, the value records both engines build on.
A write to stdout that fails, help text included, into a closed pipe or a
full disk, ends in one error line and exit 1; stdout then points at the
null device, so the interpreter's last flush prints nothing either.  These notes, like the one on dispatch, are
not part of ``-h``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

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
        raise argparse.ArgumentTypeError(f"expected 'cx,cy', got {text!r}") from None
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise argparse.ArgumentTypeError(f"centre must be finite, got {text!r}")
    return cx, cy


def _checked_int(ok, requirement: str):
    """An argparse type: an integer for which ``ok`` holds, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {value}")
        return value

    return parse


_atom_count = _checked_int(lambda n: n >= 1, "need at least one atom")
_atom_guard = _checked_int(lambda m: m >= 1, "atom guard must be >= 1")
_degree = _checked_int(lambda d: d >= 2 and not d & (d - 1), "degree must be a power of two >= 2")
_grid_size = _checked_int(lambda g: g >= 2, "grid size must be >= 2")


def _usage(call, *args, **kwargs):
    """Call a library function whose only ValueError checks option values.

    That error is a bad option value like any other, so it exits 1 (usage):
    the atom guard once argparse has checked ``-n`` and ``--max-atoms``, and
    the interval that ``belief``'s endpoints describe.
    """
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None


def _load(read, path):
    """Read a ``.cheb`` file with ``read``; one that cannot be read or parsed exits 2."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_PARSE) from None


def _spectral(command):
    """Run a spectral subcommand with numpy's floating-point warnings off.

    Every non-finite intermediate value reaches a finiteness or
    normalization check, which ends the run with one error line; a warning
    printed before that line would only repeat it.
    """

    @functools.wraps(command)
    def run(args) -> int:
        import numpy as np

        with np.errstate(all="ignore"):
            return command(args)

    return run


def cmd_hyperpower(args) -> int:
    from . import prebool

    universe = _usage(prebool.enumerate_hyperpower, args.n, max_atoms=args.max_atoms)
    if args.constraints:
        try:
            gamma = prebool.parse_constraints(Path(args.constraints).read_text(), args.n)
        except OSError as exc:
            raise CliError(str(exc), EXIT_PARSE) from None
        except ValueError as exc:  # UnicodeDecodeError or ParseError
            raise CliError(f"{args.constraints}: {exc}", EXIT_PARSE) from None
        elements = prebool.quotient(universe, gamma).representatives
    else:
        elements = universe
    for p in elements:
        print(prebool.format_proposition(p))
    print(f"count: {len(elements)}")
    return 0


def cmd_ordered(args) -> int:
    from . import ordered

    report = _usage(ordered.verify_isomorphism, args.n, max_atoms=args.max_atoms)
    print(f"classes: {report.class_count}")
    print(f"staircases: {report.staircase_count}")
    for problem in report.counterexamples:
        print(f"counterexample: {problem}")
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else EXIT_NUMERIC


@_spectral
def cmd_fuse_demo(args) -> int:
    from . import chebfusion as cf

    start = time.perf_counter()

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
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, d in surfaces.items():
            cf.save_grid(d, out / f"{name}.grid", g=args.grid)
            cf.save_coeffs(d, out / f"{name}.cheb")
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None

    # The probe step is 2/255, so its argmax is good to two decimals only.
    probe, values = cf.grid_samples(fused, 256)
    i, j = divmod(int(values.argmax()), probe.size)
    elapsed = time.perf_counter() - start
    print(
        f"mass m1={cf.integral_full(m1):.9f} m2={cf.integral_full(m2):.9f} "
        f"fused={cf.integral_full(fused):.9f} "
        f"argmax=({probe[i]:.2f}, {probe[j]:.2f}) "
        f"elapsed={elapsed:.2f}s"
    )
    return 0


@_spectral
def cmd_fuse(args) -> int:
    from . import chebfusion as cf

    fused = cf.fuse(_load(cf.load_coeffs, args.first), _load(cf.load_coeffs, args.second))
    try:
        cf.save_coeffs(fused, args.out)
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    print(f"wrote {args.out} (integral {cf.integral_full(fused):.9f})")
    return 0


def cmd_belief(args) -> int:
    from . import chebseries as cs

    iv = _usage(cs.GeneralizedInterval, args.lo, args.hi)
    rows = _load(cs.read_block, args.bba)[1]
    cs.require_normalized(cs.integral(rows))
    print(f"{cs.belief(rows, iv):.12g}")
    return 0


def _hyperpower_arguments(p: argparse.ArgumentParser) -> None:
    from .prebool import DEFAULT_ATOM_GUARD

    p.add_argument("-n", type=_atom_count, required=True, help="number of atoms")
    p.add_argument("-c", "--constraints", help="constraint file, one '<expr> = <expr>' per line")
    p.add_argument("--max-atoms", type=_atom_guard, default=DEFAULT_ATOM_GUARD)
    p.set_defaults(func=cmd_hyperpower)


def _ordered_arguments(p: argparse.ArgumentParser) -> None:
    from .prebool import DEFAULT_ATOM_GUARD

    p.add_argument("-n", type=_atom_count, required=True)
    p.add_argument("--max-atoms", type=_atom_guard, default=DEFAULT_ATOM_GUARD)
    p.set_defaults(func=cmd_ordered)


def _fuse_demo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree", type=_degree, default=128)
    p.add_argument("--grid", type=_grid_size, default=64)
    p.add_argument("--gauss1", type=_parse_center, default=(-1.0, 0.0))
    p.add_argument("--gauss2", type=_parse_center, default=(0.0, 1.0))
    p.add_argument("--out", default="demo-out")
    p.set_defaults(func=cmd_fuse_demo)


def _fuse_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)


def _belief_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("bba", help="coefficient file of a normalized density")
    p.add_argument("lo", type=float)
    p.add_argument("hi", type=float)
    p.set_defaults(func=cmd_belief)


# name: (its line in the top-level help, the function adding its arguments).
_SUBCOMMANDS = {
    "hyperpower": ("enumerate a free or constrained algebra", _hyperpower_arguments),
    "ordered": ("verify the staircase isomorphism", _ordered_arguments),
    "fuse-demo": ("run the Gaussian fusion experiment", _fuse_demo_arguments),
    "fuse": ("fuse two coefficient files", _fuse_arguments),
    "belief": ("belief of a generalized interval", _belief_arguments),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failed writes raise; argparse's own ignore them."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with every subcommand's parser."""
    # The note on dispatch is for readers of this module, not for ``-h``.
    description = __doc__.partition("Dispatch:")[0]
    parser = _Parser(prog="dsmfuse", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary, prog=f"dsmfuse {name}"))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as :func:`build_parser`'s tree does, building less of it.

    The named subcommand's parser makes the same ``parse_known_args`` call
    that the tree's subparsers action makes; the tree itself is built only
    when ``argv[0]`` names no subcommand or its parser leaves arguments over.
    """
    if argv and argv[0] in _SUBCOMMANDS:
        parser = _Parser(prog=f"dsmfuse {argv[0]}")
        _SUBCOMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        # Every command turns its own file errors into CliError, so what gets
        # here failed to write stdout, which then has a file descriptor.
        fd = _descriptor(sys.stdout)
        if fd is None:
            raise
        # The interpreter flushes stdout again at exit: that write goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:  # -h, or a usage error argparse has reported
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


def _descriptor(stream) -> int | None:
    try:
        return stream.fileno()
    except (OSError, ValueError):  # a StringIO, or a closed file
        return None


if __name__ == "__main__":
    sys.exit(main())
