"""Continuous interval evidence on [-1, 1] as 2-D Chebyshev series.

A mass density m(x, y) assigns belief to the generalized interval with lower
description x and upper description y; y < x encodes contradiction, y == x
exactness, y > x imprecision.  Densities are 2-D Chebyshev series
sum c[k][l] T_k(x) T_l(y) of a given degree, fitted by a fast cosine
transform on the Chebyshev-Lobatto tensor grid, and stored as their leading
block: the coefficients past it are exactly zero and are not kept (Chebfun
likewise stores a function as its chopped coefficients).  Belief is a corner
cumulative integral of the density, and conjunctive fusion is a four-term
combination of partial cumulatives.  A point belief is a bilinear form in
the leading block, so it needs no belief surface; that form, the ``.cheb``
reader and :class:`GeneralizedInterval` live in :mod:`dsmfuse.chebseries`,
which loads no numpy, so the ``belief`` subcommand runs without numpy.

Fitting and fusion work at the degree the data resolves.  :func:`chop` finds
where a series' coefficients reach their round-off plateau (Aurentz &
Trefethen's standardChop).  :func:`fit` samples once on the full grid,
transforms its nested coarse Lobatto subgrids, and keeps the first chopped
series that reproduces every full-grid sample to round-off (Battles &
Trefethen's adaptive construction, with the check made on the full grid),
as a density of the requested degree.  The check runs a strip of grid rows
at a time, so the sample is the one full-grid array a fit holds.  Fusion multiplies the leading blocks
of its inputs up to the larger of the two chopped degrees, k, pointwise on a
Lobatto grid.  That grid is the smallest fast one on which the products'
high modes cannot alias into the min(n, 2k+1) kept ones (Orszag's 3/2 rule;
at k = n it is about 3/2 times the input degree n).  The result has degree
n.  Only ``ChebDensity.coeffs`` and the ``.cheb`` writer pad a block with
zeros to its degree.  A series whose coefficients do not decay to a
plateau is not cut.

The cosine transforms are real FFTs of the mirrored samples, as in Chebfun,
so the module needs numpy alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as C

from . import chebseries as _series
from .chebseries import GeneralizedInterval

# the interval algebra and the normalization check live in chebseries
interval_meet = _series.interval_meet
NORMALIZATION_TOL = _series.NORMALIZATION_TOL

_EPS = np.finfo(float).eps

# A coarse fit is accepted only if it reproduces every sample to this many
# units of round-off in max|f|.  Accepted fits of seeded Gaussians at degrees
# 128 and 512 come to 2.75-6 units.
FIT_RESIDUAL = 16


class ChebDensity:
    """2-D Chebyshev series on [-1, 1]^2; coeffs[k, l] multiplies T_k(x) T_l(y).

    A density stores only its leading block, the square past which every
    coefficient is +0.0 (a -0.0 is kept, so a file reads back byte for
    byte), and its degree.  ``ChebDensity(coeffs)`` scans a full matrix
    once and copies the block; the library builds its results from blocks.
    ``coeffs``, the full (degree+1)^2 matrix, is built on first use.
    Equality and hashing are by identity.
    """

    def __init__(self, coeffs) -> None:
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        used = (c != 0) | np.signbit(c)
        used = np.flatnonzero(used.any(axis=0) | used.any(axis=1))
        size = used[-1] + 1 if used.size else 1
        block = c[:size, :size].copy()
        block.flags.writeable = False
        vars(self).update(_block=block, degree=c.shape[0] - 1)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("a ChebDensity is read-only")

    @classmethod
    def _from_block(cls, block: np.ndarray, degree: int) -> ChebDensity:
        # the density of the given degree whose coefficients start with block
        self = cls(block)
        vars(self)["degree"] = degree
        return self

    @cached_property
    def coeffs(self) -> np.ndarray:
        c = self._leading(self.degree + 1)
        c.flags.writeable = False
        return c

    def _leading(self, size: int) -> np.ndarray:
        # a new array of the first size x size coefficients, zero past the block
        c = self._block[:size, :size]
        return np.pad(c, (0, size - c.shape[0]))


def lobatto_nodes(n: int) -> np.ndarray:
    """cos(pi * i / n) for i = 0..n (decreasing from 1 to -1)."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def _dct1(a: np.ndarray, size: int) -> np.ndarray:
    # DCT-I along the last axis of a, zero-padded to size points: the real
    # FFT of the even extension a_0 .. a_{size-1}, a_{size-2} .. a_1.
    ext = np.zeros(a.shape[:-1] + (2 * size - 2,))
    ext[..., : a.shape[-1]] = a
    ext[..., size:] = ext[..., size - 2 : 0 : -1]
    return np.fft.rfft(ext).real


def _values_to_coeffs(values: np.ndarray, keep: int) -> np.ndarray:
    # DCT-I along each axis turns Lobatto samples into Chebyshev coefficients;
    # the first and last coefficient of each axis carry a 1/2 factor.  Only
    # the first keep+1 rows and columns are transformed further and returned.
    # Axis 0 goes first; the other order can differ in the last bit.
    n = values.shape[0] - 1
    c = _dct1(values.T, n + 1)[:, : keep + 1].T
    c = _dct1(c, n + 1)[:, : keep + 1] / (n * n)
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
    return _dct1(_dct1(c.T, n + 1).T, n + 1)


def fit(f: Callable[[np.ndarray, np.ndarray], np.ndarray], degree: int) -> ChebDensity:
    """Interpolate f on the (degree+1)^2 Chebyshev-Lobatto tensor grid.

    ``degree`` must be a power of two, so the transform length stays fast
    and every coarser power-of-two Lobatto grid is a strided subgrid of the
    sample, bit for bit.  For L = 16, 32, ... below ``degree``, the level-L
    subgrid is transformed and chopped (:func:`chop`); the first chopped
    block whose values at all (degree+1)^2 nodes are within
    ``FIT_RESIDUAL`` * eps * max|f| of the samples is returned as a density
    of degree ``degree``.  That check runs a few grid rows at a time
    (:func:`_grid_residual`), so the sample is the one full-grid array fit
    holds.  Otherwise, and always at degree <= 16, the full sample is
    transformed and every coefficient kept.  Either way the fitted series
    reproduces f at the grid nodes to round-off.
    """
    if degree < 2 or degree & (degree - 1):
        raise ValueError("degree must be a power of two >= 2")
    x = lobatto_nodes(degree)
    # f may return a scalar, a row or a column; fit only reads the view
    sample = np.asarray(f(x[:, None], x[None, :]), dtype=float)
    values = np.broadcast_to(sample, (degree + 1,) * 2)
    # a NaN reaches both extremes and an inf one of them
    hi, lo = values.max(), values.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("sampled values must be finite")
    tol = FIT_RESIDUAL * _EPS * max(hi, -lo)  # max(hi, -lo) is max|f|
    level = 16
    while level < degree:
        step = degree // level
        c = _values_to_coeffs(values[::step, ::step], level)
        k = chop(ChebDensity(c))
        if k < level and _grid_residual(c[: k + 1, : k + 1], x, values, tol) <= tol:
            return ChebDensity._from_block(c[: k + 1, : k + 1], degree)
        level *= 2
    return ChebDensity._from_block(_values_to_coeffs(values, degree), degree)


_STRIP_ROWS = 16


def _grid_residual(block: np.ndarray, x: np.ndarray, values: np.ndarray, tol: float) -> float:
    """Largest |series - values| on the x-by-x grid, scanned until it passes tol.

    The series with leading block ``block`` is evaluated as :func:`evaluate`
    does on an outer-product grid, vander(x) @ block @ vander(x).T, but the
    second product is formed ``_STRIP_ROWS`` grid rows at a time in one
    small buffer.  The scan stops after the first strip whose residual
    exceeds ``tol`` (or is NaN) and returns the largest residual seen.
    """
    v = C.chebvander(x, block.shape[0] - 1)
    vc = v @ block
    strip = np.empty((_STRIP_ROWS, x.size))
    worst = 0.0
    for i in range(0, x.size, _STRIP_ROWS):
        r = np.matmul(vc[i : i + _STRIP_ROWS], v.T, out=strip[: x.size - i])
        r -= values[i : i + _STRIP_ROWS]
        worst = max(r.max(), -r.min(), worst)  # NaN if r holds one
        if not worst <= tol:
            break
    return worst


def evaluate(d: ChebDensity, x, y):
    """Series value at (x, y) in [-1, 1]^2 from Chebyshev Vandermonde rows.

    Only the leading block holding every nonzero coefficient is summed.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > 1) or np.any(np.abs(y) > 1):
        raise ValueError("evaluation point outside [-1, 1]^2")
    c = d._block
    deg = c.shape[0] - 1
    if x.ndim == 2 and y.ndim == 2 and x.shape[1] == 1 and y.shape[0] == 1:
        # outer-product grid: two matrix products share each row and column
        vx = C.chebvander(x[:, 0], deg)
        vy = C.chebvander(y[0, :], deg)
        return vx @ c @ vy.T
    # scattered points: row-wise dot products of vander(x) @ C with vander(y)
    x, y = np.broadcast_arrays(x, y)
    vx, vy = (C.chebvander(v.ravel(), deg) for v in (x, y))
    out = np.einsum("ik,ik->i", vx @ c, vy).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def _cheb_weights(n: int) -> np.ndarray:
    # the integrals of T_0 .. T_n over [-1, 1]
    return np.array(_series.weights(n + 1))


def integral_full(d: ChebDensity) -> float:
    """Exact integral of the series over [-1, 1]^2, summed over its leading block."""
    c = d._block
    w = _cheb_weights(c.shape[0] - 1)
    return float(w @ c @ w)


def normalize(d: ChebDensity) -> ChebDensity:
    """Scale so the total integral is 1."""
    total = integral_full(d)
    if not np.isfinite(total):
        raise ValueError(f"cannot normalize: total mass {total} is not finite")
    if total <= 0:
        raise ValueError(f"cannot normalize: total mass {total} <= 0")
    return ChebDensity._from_block(d._block / total, d.degree)


def _axis_cumulative(coeffs: np.ndarray, axis: int, full_at: int) -> np.ndarray:
    """Running integral of a 2-D coefficient array along one axis.

    ``full_at=+1`` gives the integral from -1 up to the coordinate (vanishes
    at -1, complete at +1); ``full_at=-1`` integrates from the coordinate up
    to +1.  The antiderivative follows the recurrence
    b_k = (c_{k-1} a_{k-1} - a_{k+1}) / (2k), with c_0 = 2 and c_k = 1
    otherwise; its constant term b_0 starts at 0 and is then fixed so the
    result vanishes at the start point.
    """
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
    (-1, 1).  The result has degree n+1; its block is the integral of the
    density's block, one coefficient longer per axis.
    """
    if corner[0] not in (-1, 1) or corner[1] not in (-1, 1):
        raise ValueError(f"corner coordinates must be -1 or +1, got {corner}")
    c = _axis_cumulative(d._block, axis=0, full_at=corner[0])
    c = _axis_cumulative(c, axis=1, full_at=corner[1])
    return ChebDensity._from_block(c, d.degree + 1)


def belief(m: ChebDensity, iv: GeneralizedInterval) -> float:
    """Cumulative mass of every interval contained in iv.

    An interval (u, v) is contained in (lo, hi) iff u >= lo and v <= hi, so
    the belief is the integral of the density over u in [lo, 1], v in
    [-1, hi]: the bilinear form a @ block @ b of :mod:`dsmfuse.chebseries`,
    each row's sum with b taken first.  No belief surface is built.
    """
    _require_normalized(m)
    a, b = _series.belief_basis(iv.lo, iv.hi, m._block.shape[0])
    return float(np.array(a) @ (m._block @ np.array(b)))


def belief_surface(m: ChebDensity) -> ChebDensity:
    """The belief of (x, y) as a function of the interval endpoints.

    This is the corner cumulative ``cumulative(m, corner=(-1, 1))``;
    :func:`belief` gives its value at a point without building it.
    """
    _require_normalized(m)
    return cumulative(m, corner=(-1, 1))


def _require_normalized(d: ChebDensity) -> None:
    _series.require_normalized(integral_full(d))


def chop(d: ChebDensity) -> int:
    """Degree at which the coefficients of ``d`` reach their round-off plateau.

    This is Aurentz & Trefethen's standardChop ("Chopping a Chebyshev
    series", ACM TOMS 2017) with tol = machine epsilon, run on the shell
    envelope: entry k is the largest |c[i, j]| with max(i, j) >= k.  A
    series of fewer than 17 coefficients per axis, or one whose envelope has
    no plateau, keeps its degree; a longer all-zero series chops to 0.
    standardChop's branch for an envelope that is zero at the plateau point
    is omitted: this scan stops before such a point, since a zero entry is
    itself a plateau.
    """
    n = d.degree + 1
    if n < 17:
        return d.degree
    a = np.abs(d._block)
    env = np.zeros(n)  # zero past the block
    env[: a.shape[0]] = np.maximum(a.max(axis=0), a.max(axis=1))
    env = np.maximum.accumulate(env[::-1])[::-1]
    if env[0] == 0:
        return 0
    env /= env[0]
    # Plateau: the first j (1-based, as in the paper) at which the envelope
    # is below tol^(2/3) and flat from j to j2 = round(1.25 j + 5).
    j = np.arange(2, n + 1)
    j2 = (1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = env[j - 1], env[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0) | (e2 / e1 > 3 * (1 - np.log(e1) / np.log(_EPS)))
    hits = np.flatnonzero(plateau)
    if hits.size == 0:
        return d.degree
    # standardChop cuts at j - 1 when env(j - 1) is 0, which cannot happen
    # here: env is non-increasing with env(1) = 1, and e1 == 0 counts as a
    # plateau, so a zero env(j - 1) would have stopped the scan at j - 1.
    j2 = j2[hits[0]]
    # Cut where the envelope up to j2, tilted up by a line that favours
    # shorter series, is least; the first entry below tol^(7/6) counts as
    # tol^(7/6) and ends the search.
    floor = _EPS ** (7 / 6)
    j3 = np.count_nonzero(env >= floor)
    head = env[: min(j2, j3 + 1)]
    head[j3:] = floor
    tilted = np.log10(head) + np.linspace(0, -np.log10(_EPS) / 3, head.size)
    return max(int(np.argmin(tilted)), 1) - 1


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

    An input of lower degree is taken at the larger degree, n.  The
    terms are formed from the leading (k+1)^2 coefficients, k the larger
    :func:`chop` degree of the two, so each factor has degree <= k+1 per
    axis and each product degree <= 2k+1.  On an (M+1)^2 Lobatto grid the
    DCT-I folds a mode p > M onto 2M - p, which lies above the kept degree
    K = min(n, 2k+1) whenever 2M > 2k+1+K; products sampled on the smallest
    fast such grid (Orszag's 3/2 rule, 2M > 3n+1 at k = n) and truncated to
    degree K are exact; they form the block of the degree-n result.
    """
    _require_normalized(m1)
    _require_normalized(m2)
    n = max(m1.degree, m2.degree)
    m1, m2 = (m if m.degree == n else ChebDensity._from_block(m._block, n) for m in (m1, m2))
    k = max(chop(m1), chop(m2))
    keep = min(n, 2 * k + 1)
    size = _alias_free_size(k, keep)
    total = np.zeros((size + 1, size + 1))
    for a, b in ((m1, m2), (m2, m1)):
        ca, cb = a._leading(k + 1), b._leading(k + 1)
        pa = _axis_cumulative(ca, axis=0, full_at=1)      # P_a
        qb = _axis_cumulative(cb, axis=1, full_at=-1)     # Q_b
        fb = _axis_cumulative(qb, axis=0, full_at=1)      # F_b
        total += _coeffs_to_values(ca, size) * _coeffs_to_values(fb, size)
        total += _coeffs_to_values(pa, size) * _coeffs_to_values(qb, size)
    return ChebDensity._from_block(_values_to_coeffs(total, keep), n)


def _alias_free_size(k: int, keep: int) -> int:
    """Smallest M with 2M > 2k+1+keep and 2M 5-smooth, a fast DCT-I length.

    On that grid, products of degree <= 2k+1 alias onto none of their first
    keep+1 modes; ``keep = k`` is the 3/2 rule 2M > 3k+1.
    """
    m = (2 * k + 1 + keep) // 2 + 1
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
    """exp(-(x - cx)^2 - (y - cy)^2), an unnormalized interval density.

    On a grid the exponent array is exponentiated in place, so a sample
    holds one array of the grid's size.
    """

    def density(x, y):
        s = -((x - cx) ** 2) - (y - cy) ** 2
        if isinstance(s, np.ndarray) and s.dtype == float:
            return np.exp(s, out=s)
        return np.exp(s)

    return density


# --- text formats ----------------------------------------------------------


def save_coeffs(d: ChebDensity, path) -> None:
    """Header ``cheb2d N`` then N+1 rows of N+1 coefficients.

    The block's rows are written first, each followed by its zero tail, and
    then the all-zero rows; the tail and the zero row are formatted once.
    """
    n, size = d.degree + 1, d._block.shape[0]
    tail = " 0.0" * (n - size) + "\n"
    with open(path, "w") as fh:
        fh.write(f"cheb2d {d.degree}\n")
        fh.writelines(" ".join(map(repr, row)) + tail for row in d._block.tolist())
        fh.write(_series.zero_row_text(d.degree) * (n - size))


def load_coeffs(path) -> ChebDensity:
    """Read a :func:`save_coeffs` file through :func:`dsmfuse.chebseries.read_block`.

    Malformed text, including bytes that do not decode, raises ValueError,
    and every such error's text starts with ``f"{path}: "``.
    """
    degree, rows = _series.read_block(path)
    return ChebDensity._from_block(np.array(rows), degree)


def grid_samples(d: ChebDensity, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform g x g sample of the surface; returns (axis, values)."""
    if g < 2:
        raise ValueError("grid size must be >= 2")
    axis = np.linspace(-1.0, 1.0, g)
    return axis, evaluate(d, axis[:, None], axis[None, :])


def save_grid(d: ChebDensity, path, g: int = 64) -> None:
    """Surface-plot block format: ``x y value`` rows, blank line per x-block.

    Each x-block is one ``%`` template, its labels in place and a ``%.12e``
    per value, filled with that row of samples.
    """
    axis, values = grid_samples(d, g)
    labels = [f"{a:.6f}" for a in axis.tolist()]
    cells = [f"{y} %.12e" for y in labels]
    with open(path, "w") as fh:
        fh.writelines(
            (f"{x} " + f"\n{x} ".join(cells) + "\n\n") % tuple(row)
            for x, row in zip(labels, values.tolist())
        )
