"""Continuous interval evidence on [-1, 1] as 2-D Chebyshev series.

A mass density m(x, y) assigns belief to the generalized interval with lower
description x and upper description y; y < x encodes contradiction, y == x
exactness, y > x imprecision.  Densities are stored as coefficient matrices
c[k][l] of sum c[k][l] T_k(x) T_l(y), fitted by a fast cosine transform on
the Chebyshev-Lobatto tensor grid.  Belief is a corner cumulative integral
of the density, and conjunctive fusion is a four-term combination of partial
cumulatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy.fft import dct

NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class GeneralizedInterval:
    """Interval description (lo, hi) with hi < lo allowed (contradiction)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (-1 <= self.lo <= 1 and -1 <= self.hi <= 1):
            raise ValueError("interval endpoints must lie in [-1, 1]")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / 2

    @property
    def center(self) -> float:
        return (self.lo + self.hi) / 2


def interval_meet(a: GeneralizedInterval, b: GeneralizedInterval) -> GeneralizedInterval:
    """Conjunction of interval evidence: tightest common description.

    max/min keep both coordinates inside [-1, 1], so the family of
    generalized intervals is closed under meets.
    """
    return GeneralizedInterval(max(a.lo, b.lo), min(a.hi, b.hi))


@dataclass(frozen=True)
class ChebDensity:
    """2-D Chebyshev series on [-1, 1]^2; coeffs[k, l] multiplies T_k(x) T_l(y)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1


def lobatto_nodes(n: int) -> np.ndarray:
    """cos(pi * i / n) for i = 0..n (decreasing from 1 to -1)."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def _values_to_coeffs(values: np.ndarray) -> np.ndarray:
    # DCT-I along each axis turns Lobatto samples into Chebyshev coefficients;
    # the first and last coefficient of each axis carry a 1/2 factor.
    n = values.shape[0] - 1
    c = dct(dct(values, type=1, axis=0), type=1, axis=1) / (n * n)
    c[0, :] /= 2
    c[n, :] /= 2
    c[:, 0] /= 2
    c[:, n] /= 2
    return c


def _coeffs_to_values(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.shape[0] - 1
    c = coeffs.copy()
    c[1:n, :] /= 2
    c[:, 1:n] /= 2
    return dct(dct(c, type=1, axis=0), type=1, axis=1)


def fit(f: Callable[[np.ndarray, np.ndarray], np.ndarray], degree: int) -> ChebDensity:
    """Interpolate f on the (degree+1)^2 Chebyshev-Lobatto tensor grid.

    ``degree`` must be a power of two (the transform length stays fast and
    doubling for products is exact).  The fitted series reproduces f at the
    grid nodes to round-off.
    """
    if degree < 2 or degree & (degree - 1):
        raise ValueError("degree must be a power of two >= 2")
    x = lobatto_nodes(degree)
    values = np.asarray(f(x[:, None], x[None, :]), dtype=float)
    if values.shape != (degree + 1, degree + 1):
        values = np.broadcast_to(values, (degree + 1, degree + 1)).astype(float)
    if not np.all(np.isfinite(values)):
        raise ValueError("sampled values must be finite")
    return ChebDensity(_values_to_coeffs(values))


def evaluate(d: ChebDensity, x, y):
    """Series value at (x, y) in [-1, 1]^2 via the Clenshaw recurrence."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > 1) or np.any(np.abs(y) > 1):
        raise ValueError("evaluation point outside [-1, 1]^2")
    if x.ndim == 2 and y.ndim == 2 and x.shape[1] == 1 and y.shape[0] == 1:
        # outer-product grid: two Vandermonde products beat per-point Clenshaw
        vx = C.chebvander(x[:, 0], d.degree)
        vy = C.chebvander(y[0, :], d.degree)
        return vx @ d.coeffs @ vy.T
    x, y = np.broadcast_arrays(x, y)
    out = C.chebval2d(x, y, d.coeffs)
    return float(out) if out.ndim == 0 else out


def _cheb_weights(n: int) -> np.ndarray:
    # integral of T_k over [-1, 1]: 2 / (1 - k^2) for even k, 0 for odd k.
    k = np.arange(n + 1)
    w = np.zeros(n + 1)
    even = k % 2 == 0
    w[even] = 2.0 / (1.0 - k[even] ** 2)
    return w


def integral_full(d: ChebDensity) -> float:
    """Exact integral of the series over [-1, 1]^2."""
    w = _cheb_weights(d.degree)
    return float(w @ d.coeffs @ w)


def normalize(d: ChebDensity) -> ChebDensity:
    """Scale so the total integral is 1."""
    total = integral_full(d)
    if total <= 0:
        raise ValueError(f"cannot normalize: total mass {total} <= 0")
    return ChebDensity(d.coeffs / total)


def _axis_cumulative(coeffs: np.ndarray, axis: int, full_at: int) -> np.ndarray:
    """Running integral along one axis.

    ``full_at=+1`` gives the integral from -1 up to the coordinate (vanishes
    at -1, complete at +1); ``full_at=-1`` integrates from the coordinate up
    to +1.  The antiderivative follows the recurrence
    b_k = (a_{k-1} - a_{k+1}) / (2k), with the constant term fixed so the
    result vanishes at the start point.
    """
    if full_at not in (-1, 1):
        raise ValueError("full_at must be -1 or +1")
    anti = C.chebint(coeffs, axis=axis)
    moved = np.moveaxis(anti, axis, 0)
    k = np.arange(moved.shape[0])
    if full_at == 1:
        # subtract value at -1: sum_k F_k (-1)^k
        moved[0] -= ((-1.0) ** k) @ moved
    else:
        # integral from x to +1 is F(1) - F(x)
        moved *= -1
        moved[0] += -np.ones_like(k, dtype=float) @ moved  # add F(1) = sum F_k
    return np.moveaxis(moved, 0, axis)


def cumulative(d: ChebDensity, corner: tuple[int, int]) -> ChebDensity:
    """Running double integral of the density.

    ``corner=(cx, cy)`` names the corner where the accumulation is complete:
    cx=+1 integrates x from -1, cx=-1 integrates x from +1 (downwards), and
    likewise for cy.  The belief corner is (-1, +1): full mass at the point
    (-1, 1).
    """
    c = _axis_cumulative(d.coeffs, axis=0, full_at=corner[0])
    c = _axis_cumulative(c, axis=1, full_at=corner[1])
    return ChebDensity(c)


def belief(m: ChebDensity, iv: GeneralizedInterval) -> float:
    """Cumulative mass of every interval contained in iv.

    An interval (u, v) is contained in (lo, hi) iff u >= lo and v <= hi, so
    the belief is the integral of the density over u in [lo, 1], v in
    [-1, hi].
    """
    _require_normalized(m)
    return evaluate(cumulative(m, corner=(-1, 1)), iv.lo, iv.hi)


def belief_surface(m: ChebDensity) -> ChebDensity:
    """The belief of (x, y) as a function of the interval endpoints."""
    _require_normalized(m)
    return cumulative(m, corner=(-1, 1))


def _require_normalized(d: ChebDensity) -> None:
    total = integral_full(d)
    if abs(total - 1) > NORMALIZATION_TOL:
        raise ValueError(f"density is not normalized (integral {total})")


def fuse(m1: ChebDensity, m2: ChebDensity) -> ChebDensity:
    """Conjunctive fusion of two normalized interval densities.

    The fused density at (x, y) collects every pair of intervals whose meet
    is (x, y), i.e. max(x1, x2) = x and min(y1, y2) = y.  Splitting on which
    operand attains the max/min gives four separable terms:

        m1(x,y) * F2(x,y)  -- operand 1 fixes both endpoints,
        F1(x,y) * m2(x,y)  -- operand 2 fixes both endpoints,
        P1(x,y) * Q2(x,y)  -- operand 1 fixes y, operand 2 fixes x,
        Q1(x,y) * P2(x,y)  -- operand 1 fixes x, operand 2 fixes y,

    with P_i(x,y) = int_{-1}^{x} m_i(u,y) du, Q_i(x,y) = int_y^1 m_i(x,v) dv
    and F_i(x,y) = int_{-1}^{x} int_y^1 m_i(u,v) dv du.  Each term factors
    because the loose endpoint of one operand only ranges over a product
    region.  Ties on the boundary have measure zero.

    Products are formed pointwise on a doubled Lobatto grid and transformed
    back, then truncated to the common input degree.
    """
    if m1.degree != m2.degree:
        raise ValueError(f"degree mismatch: {m1.degree} vs {m2.degree}")
    _require_normalized(m1)
    _require_normalized(m2)
    n = m1.degree
    big = 2 * n

    def padded_values(coeffs: np.ndarray) -> np.ndarray:
        padded = np.zeros((big + 1, big + 1))
        padded[: coeffs.shape[0], : coeffs.shape[1]] = coeffs
        return _coeffs_to_values(padded)

    total = np.zeros((big + 1, big + 1))
    for a, b in ((m1, m2), (m2, m1)):
        pa = _axis_cumulative(a.coeffs, axis=0, full_at=1)      # P_a
        qb = _axis_cumulative(b.coeffs, axis=1, full_at=-1)     # Q_b
        fb = _axis_cumulative(qb, axis=0, full_at=1)            # F_b
        total += padded_values(a.coeffs) * padded_values(fb)
        total += padded_values(pa) * padded_values(qb)
    coeffs = _values_to_coeffs(total)
    return ChebDensity(coeffs[: n + 1, : n + 1].copy())


# --- demo densities --------------------------------------------------------


def gaussian(cx: float, cy: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """exp(-(x - cx)^2 - (y - cy)^2), an unnormalized interval density."""
    return lambda x, y: np.exp(-((x - cx) ** 2) - (y - cy) ** 2)


def remap(f: Callable, a: float, b: float) -> Callable:
    """View a function on [a, b]^2 as one on [-1, 1]^2 (affine pullback)."""
    if not b > a:
        raise ValueError("need b > a")
    half = (b - a) / 2
    mid = (a + b) / 2

    def g(x, y):
        return f(mid + half * x, mid + half * y)

    return g


# --- text formats ----------------------------------------------------------


def save_coeffs(d: ChebDensity, path) -> None:
    """Header ``cheb2d N`` then N+1 rows of N+1 coefficients."""
    with open(path, "w") as fh:
        fh.write(f"cheb2d {d.degree}\n")
        for row in d.coeffs:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_coeffs(path) -> ChebDensity:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "cheb2d":
            raise ValueError(f"{path}: malformed coefficient header")
        n = int(header[1])
        rows = [[float(v) for v in fh.readline().split()] for _ in range(n + 1)]
    coeffs = np.array(rows)
    if coeffs.shape != (n + 1, n + 1):
        raise ValueError(f"{path}: expected {n + 1}x{n + 1} coefficients")
    try:
        return ChebDensity(coeffs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def grid_samples(d: ChebDensity, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform g x g sample of the surface; returns (axis, values)."""
    if g < 2:
        raise ValueError("grid size must be >= 2")
    axis = np.linspace(-1.0, 1.0, g)
    return axis, evaluate(d, axis[:, None], axis[None, :])


def save_grid(d: ChebDensity, path, g: int = 64) -> None:
    """Surface-plot block format: ``x y value`` rows, blank line per x-block."""
    axis, values = grid_samples(d, g)
    with open(path, "w") as fh:
        for i, x in enumerate(axis):
            for j, y in enumerate(axis):
                fh.write(f"{x:.6f} {y:.6f} {values[i, j]:.12e}\n")
            fh.write("\n")


def load_grid(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a grid file back into (axis, values)."""
    xs: list[float] = []
    blocks: list[list[float]] = []
    current: list[float] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                if current:
                    blocks.append(current)
                    current = []
                continue
            x, _y, v = line.split()
            if not current:
                xs.append(float(x))
            current.append(float(v))
    if current:
        blocks.append(current)
    return np.array(xs), np.array(blocks)
