"""Continuous interval evidence on [-1, 1] as 2-D Chebyshev series.

A mass density m(x, y) assigns belief to the generalized interval with lower
description x and upper description y; y < x encodes contradiction, y == x
exactness, y > x imprecision.  Densities are stored as coefficient matrices
c[k][l] of sum c[k][l] T_k(x) T_l(y), fitted by a fast cosine transform on
the Chebyshev-Lobatto tensor grid.  Belief is a corner cumulative integral
of the density, and conjunctive fusion is a four-term combination of partial
cumulatives.  Fusion multiplies its factors pointwise on a Lobatto grid about
3/2 times the input degree, the smallest fast one on which the products'
high modes cannot alias into the kept ones (Orszag's 3/2 rule).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy.fft import dct

NORMALIZATION_TOL = 1e-6

# Threads per 2-D transform, one per usable core.  Each thread takes whole
# 1-D transforms, so the result does not depend on the count.
DCT_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


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


def _values_to_coeffs(values: np.ndarray, keep: int) -> np.ndarray:
    # DCT-I along each axis turns Lobatto samples into Chebyshev coefficients;
    # the first and last coefficient of each axis carry a 1/2 factor.  Only
    # the first keep+1 rows and columns are transformed further and returned.
    n = values.shape[0] - 1
    c = dct(values, type=1, axis=0, workers=DCT_WORKERS)[: keep + 1]
    c = dct(c, type=1, axis=1, workers=DCT_WORKERS)[:, : keep + 1] / (n * n)
    c[0, :] /= 2
    c[n:, :] /= 2  # row n exists only when keep == n
    c[:, 0] /= 2
    c[:, n:] /= 2
    return c


def _coeffs_to_values(coeffs: np.ndarray, n: int) -> np.ndarray:
    # Values on the (n+1)^2 Lobatto grid of a series with at most n+1
    # coefficients per axis.  The missing ones are zero: the axis-0 transform
    # runs on the given columns only, and each transform pads its input.
    c = coeffs.copy()
    c[1:n, :] /= 2
    c[:, 1:n] /= 2
    c = dct(c, type=1, n=n + 1, axis=0, workers=DCT_WORKERS)
    return dct(c, type=1, n=n + 1, axis=1, workers=DCT_WORKERS)


def fit(f: Callable[[np.ndarray, np.ndarray], np.ndarray], degree: int) -> ChebDensity:
    """Interpolate f on the (degree+1)^2 Chebyshev-Lobatto tensor grid.

    ``degree`` must be a power of two, so the transform length stays fast.
    The fitted series reproduces f at the grid nodes to round-off.
    """
    if degree < 2 or degree & (degree - 1):
        raise ValueError("degree must be a power of two >= 2")
    x = lobatto_nodes(degree)
    values = np.asarray(f(x[:, None], x[None, :]), dtype=float)
    if values.shape != (degree + 1, degree + 1):
        values = np.broadcast_to(values, (degree + 1, degree + 1)).astype(float)
    if not np.all(np.isfinite(values)):
        raise ValueError("sampled values must be finite")
    return ChebDensity(_values_to_coeffs(values, degree))


def evaluate(d: ChebDensity, x, y):
    """Series value at (x, y) in [-1, 1]^2 from Chebyshev Vandermonde rows."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > 1) or np.any(np.abs(y) > 1):
        raise ValueError("evaluation point outside [-1, 1]^2")
    if x.ndim == 2 and y.ndim == 2 and x.shape[1] == 1 and y.shape[0] == 1:
        # outer-product grid: two matrix products share each row and column
        vx = C.chebvander(x[:, 0], d.degree)
        vy = C.chebvander(y[0, :], d.degree)
        return vx @ d.coeffs @ vy.T
    # scattered points: row-wise dot products of vander(x) @ C with vander(y)
    x, y = np.broadcast_arrays(x, y)
    vx, vy = (C.chebvander(v.ravel(), d.degree) for v in (x, y))
    out = np.einsum("ik,ik->i", vx @ d.coeffs, vy).reshape(x.shape)
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
    """Running integral of a 2-D coefficient array along one axis.

    ``full_at=+1`` gives the integral from -1 up to the coordinate (vanishes
    at -1, complete at +1); ``full_at=-1`` integrates from the coordinate up
    to +1.  The antiderivative follows the recurrence
    b_k = (c_{k-1} a_{k-1} - a_{k+1}) / (2k), with c_0 = 2 and c_k = 1
    otherwise; its constant term b_0 starts at 0 and is then fixed so the
    result vanishes at the start point.
    """
    if full_at not in (-1, 1):
        raise ValueError("full_at must be -1 or +1")
    a = np.moveaxis(coeffs, axis, 0)
    m = a.shape[0]
    anti = np.zeros((m + 1, a.shape[1]))
    anti[1:] = a
    anti[1] += a[0]
    anti[1 : m - 1] -= a[2:]
    anti[1:] /= 2.0 * np.arange(1, m + 1)[:, None]
    if full_at == 1:
        # subtract the value at -1, sum_k b_k (-1)^k
        anti[0] = -((-1.0) ** np.arange(m + 1)) @ anti
    else:
        # integral from x to +1 is F(1) - F(x), with F(1) = sum_k b_k
        anti *= -1
        anti[0] = -anti.sum(axis=0)
    return np.moveaxis(anti, 0, axis)


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
    return evaluate(belief_surface(m), iv.lo, iv.hi)


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

    Each factor has degree <= n+1 per axis, so each product has degree
    <= 2n+1; on an (M+1)^2 Lobatto grid the DCT-I folds a mode k > M onto
    2M - k, which lies above n whenever 2M > 3n+1, so products sampled on
    that grid (Orszag's 3/2 rule) and truncated to degree n are exact.
    """
    if m1.degree != m2.degree:
        raise ValueError(f"degree mismatch: {m1.degree} vs {m2.degree}")
    _require_normalized(m1)
    _require_normalized(m2)
    n = m1.degree
    size = _alias_free_size(n)
    total = np.zeros((size + 1, size + 1))
    for a, b in ((m1, m2), (m2, m1)):
        pa = _axis_cumulative(a.coeffs, axis=0, full_at=1)      # P_a
        qb = _axis_cumulative(b.coeffs, axis=1, full_at=-1)     # Q_b
        fb = _axis_cumulative(qb, axis=0, full_at=1)            # F_b
        total += _coeffs_to_values(a.coeffs, size) * _coeffs_to_values(fb, size)
        total += _coeffs_to_values(pa, size) * _coeffs_to_values(qb, size)
    return ChebDensity(_values_to_coeffs(total, n))


def _alias_free_size(n: int) -> int:
    """Smallest M with 2M > 3n+1 and 2M 5-smooth, a fast DCT-I length."""
    m = (3 * n + 3) // 2
    while True:
        r = 2 * m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


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
    """Read a :func:`save_coeffs` file, stopping at the first malformed row.

    Malformed text, including bytes that do not decode, raises ValueError.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "cheb2d" or not header[1].isdecimal():
            raise ValueError(f"{path}: malformed coefficient header")
        n = int(header[1])
        rows = []
        for k in range(1, n + 2):
            rows.append([float(v) for v in fh.readline().split()])
            if len(rows[-1]) != n + 1:
                raise ValueError(
                    f"{path}: row {k} holds {len(rows[-1])} coefficients, expected {n + 1}"
                )
    coeffs = np.array(rows)
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
    """Read a grid file back into (axis, values); malformed text raises ValueError."""
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
            x, _y, v = (float(t) for t in line.split())
            if not current:
                xs.append(x)
            current.append(v)
    if current:
        blocks.append(current)
    return np.array(xs), np.array(blocks)
