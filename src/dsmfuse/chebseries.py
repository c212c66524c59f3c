"""Point beliefs of a stored density in plain Python: the ``.cheb`` reader and the belief form.

A density's belief of the generalized interval (lo, hi) is the integral of
sum c[k][l] T_k(u) T_l(v) over u in [lo, 1] and v in [-1, hi], so it is the
bilinear form

    sum_k sum_l c[k][l] A_k(lo) B_l(hi),

with A_k(lo) = F_k(1) - F_k(lo) and B_l(hi) = F_l(hi) - F_l(-1), F_k the
antiderivative of T_k: F_0 = T_1, F_1 = T_2 / 4 and
F_k = T_{k+1} / (2(k+1)) - T_{k-1} / (2(k-1)) for k >= 2 (Mason &
Handscomb, *Chebyshev Polynomials*, 2003, section 2.4).  Only the leading
block of coefficients enters the form, and no belief surface is built.

This module loads nothing heavier than :mod:`math`, :mod:`operator` and the
value records of :mod:`dsmfuse._values`, so the ``belief`` subcommand runs
without numpy; :mod:`dsmfuse.chebfusion` reads its files and takes its
belief basis and Chebyshev weights from here too.  The generalized interval
lives here for the same reason.
"""

from __future__ import annotations

import math
from operator import mul, sub

from ._values import Frozen

NORMALIZATION_TOL = 1e-6


class GeneralizedInterval(Frozen):
    """Interval description (lo, hi) with hi < lo allowed (contradiction).

    A frozen value, as ``prebool.Proposition`` is: equal to an interval with
    the same endpoints, hashed by them, and refusing assignment and deletion.
    """

    _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not (-1 <= lo <= 1 and -1 <= hi <= 1):
            raise ValueError("interval endpoints must lie in [-1, 1]")
        self.__dict__.update(lo=lo, hi=hi)


def interval_meet(a: GeneralizedInterval, b: GeneralizedInterval) -> GeneralizedInterval:
    """Conjunction of interval evidence: tightest common description.

    max/min keep both coordinates inside [-1, 1], so the family of
    generalized intervals is closed under meets.
    """
    return GeneralizedInterval(max(a.lo, b.lo), min(a.hi, b.hi))


# --- the .cheb reader --------------------------------------------------------


def read_block(path) -> tuple[int, list[list[float]]]:
    """Read a ``save_coeffs`` file as its degree and the rows of its leading block.

    The block is the smallest square, at least 1 x 1, past which every
    coefficient is +0.0; a -0.0 counts as used, so it reads back as written.
    A line that is exactly the writer's all-zero row is not parsed.  Any
    other row is parsed up to the writer's zero tail, its ``" 0.0"`` tokens
    and the ``"\\n"`` that ends it, which is counted; a zero written any
    other way, a doubled space or ``"\\r\\n"`` included, is parsed.  The
    writer gives every row of the block the same tail, so each row is first
    tried against the last tail met.  Reading stops at the first malformed
    row, and non-finite coefficients are rejected once every row has been
    read.  Blank lines may follow the last row, and nothing else.
    Malformed text, including bytes that do not decode, raises ValueError
    whose text starts with ``f"{path}: "``.
    """
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2 or header[0] != "cheb2d" or not header[1].isdecimal():
                raise ValueError("malformed coefficient header")
            n = int(header[1])
            heads = []  # each row's values up to its last one that is not +0.0
            zero_row = tail = None  # built only once a line of their length is read
            for k in range(1, n + 2):
                line = fh.readline()
                if len(line) == 4 * n + 4:
                    zero_row = zero_row or zero_row_text(n)
                    if line == zero_row:
                        heads.append([])
                        continue
                if not (tail and line.endswith(tail)):
                    tail = _zero_tail(line)
                if tail:
                    tokens, zeros = line[: len(line) - len(tail)].split(), len(tail) // 4
                else:
                    tokens, zeros = line.split(), 0
                values = list(map(float, tokens))
                if len(values) + zeros != n + 1:
                    raise ValueError(
                        f"row {k} holds {len(values) + zeros} coefficients, expected {n + 1}"
                    )
                while values and values[-1] == 0 and math.copysign(1, values[-1]) > 0:
                    values.pop()
                heads.append(values)
            if any(not line.isspace() for line in fh):
                raise ValueError(f"text after row {n + 1}")
        used_rows = max((k + 1 for k, v in enumerate(heads) if v), default=0)
        size = max(used_rows, max(map(len, heads)), 1)
        rows = [v + [0.0] * (size - len(v)) for v in heads[:size]]
        if not all(map(_finite, rows)):
            raise ValueError("coefficients must be finite")
        return n, rows
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def zero_row_text(degree: int) -> str:
    """The writer's all-zero row, ``4 * degree + 4`` characters long."""
    return "0.0" + " 0.0" * degree + "\n"


def _zero_tail(line: str) -> str | None:
    """The longest writer's zero tail that ends ``line``, or None.

    It can start only at the first space after the line's last character
    that is not a space, ``0`` or ``.``; there is one when ``" 0.0"`` tiles
    the text from there to the final ``"\\n"``.
    """
    if line.endswith("\n"):
        end = len(line) - 1
        cut = line.find(" ", len(line.rstrip(" 0.\n")))
        if cut >= 0 and 4 * line.count(" 0.0", cut, end) == end - cut:
            return line[cut:]
    return None


def _finite(row: list[float]) -> bool:
    # A non-finite entry makes the sum inf or nan; only then is each checked.
    return math.isfinite(sum(row)) or all(map(math.isfinite, row))


# --- the belief form and the normalization integral -------------------------


def _antiderivatives(x: float, size: int) -> list[float]:
    # F_0(x) .. F_{size-1}(x), from T_0(x) .. T_{size+1}(x) by the recurrence
    t = [1.0, x]
    while len(t) < size + 2:
        t.append(2 * x * t[-1] - t[-2])
    f = [t[1], t[2] / 4]
    f += [t[k + 1] / (2 * (k + 1)) - t[k - 1] / (2 * (k - 1)) for k in range(2, size)]
    return f[:size]


def belief_basis(lo: float, hi: float, size: int) -> tuple[list[float], list[float]]:
    """A_0(lo) .. A_{size-1}(lo) and B_0(hi) .. B_{size-1}(hi) of the belief form."""
    a = list(map(sub, _antiderivatives(1.0, size), _antiderivatives(lo, size)))
    b = list(map(sub, _antiderivatives(hi, size), _antiderivatives(-1.0, size)))
    return a, b


def belief(rows: list[list[float]], iv: GeneralizedInterval) -> float:
    """The belief form on a block's rows: each row's sum with B, then the sum with A."""
    a, b = belief_basis(iv.lo, iv.hi, len(rows))
    return sum(map(mul, a, [sum(map(mul, row, b)) for row in rows]))


def weights(size: int) -> list[float]:
    """w_0 .. w_{size-1}, w_k the integral of T_k over [-1, 1].

    That is 2 / (1 - k^2) for even k and 0 for odd k.
    """
    return [2.0 / (1.0 - k * k) if k % 2 == 0 else 0.0 for k in range(size)]


def integral(rows: list[list[float]]) -> float:
    """wᵀCw, the integral over [-1, 1]^2, with w_k the integral of T_k.

    The column sums wᵀC come first, as in numpy's ``w @ c @ w``: on a block
    whose column sums overflow, that order gives nan where the rows first
    can give a finite value.
    """
    w = weights(len(rows))
    return sum(map(mul, [sum(map(mul, w, column)) for column in zip(*rows)], w))


def require_normalized(total: float) -> None:
    """Reject an integral farther than ``NORMALIZATION_TOL`` from 1, or nan."""
    if not abs(total - 1) <= NORMALIZATION_TOL:  # a NaN total fails too
        raise ValueError(f"density is not normalized (integral {total})")
