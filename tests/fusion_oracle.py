"""Reference spectral fusion: full-degree, unchopped and doubled-grid ``fuse``, ``chebint`` antiderivative.

``chebfusion.fuse`` forms its products from the inputs' chopped leading
blocks on a 3/2-rule grid with zero-aware, truncating transforms, chops the
product, and ``chebfusion._axis_cumulative`` uses a vectorized recurrence.
This module keeps the versions they replaced: ``fuse_full``, the same
3/2-rule fusion at the full input degree; ``fuse_unchopped``, the fusion of
the chopped inputs with every kept mode of the product; ``fuse``, products
sampled on the (2n+1)^2 Lobatto grid, where no mode of degree <= 2n+1 can
alias into the kept ones; and antiderivatives from
``numpy.polynomial.chebyshev.chebint``.  Tests compare them to round-off,
and ``fuse_full`` bit for bit on inputs that do not chop.

``coeffs_to_values`` and ``values_to_coeffs`` are the full-size transforms
through ``scipy.fft.dct``, which ``chebfusion`` used before it computed the
DCT-I as a real FFT of the mirrored samples; sliced or padded, they equal
``chebfusion``'s truncating transforms bit for bit.  scipy is a test
dependency only.

``cell_fusion`` is the discrete model that both engines approximate: the
conjunctive fusion of masses on a grid of cells, written as prefix sums.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy.fft import dct

from dsmfuse import chebfusion as cf


def axis_cumulative(coeffs: np.ndarray, axis: int, full_at: int) -> np.ndarray:
    """Running integral along one axis, vanishing at -full_at and complete at full_at."""
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


def coeffs_to_values(coeffs: np.ndarray) -> np.ndarray:
    """Values of a square series on its own Lobatto grid (inverse of the fit)."""
    n = coeffs.shape[0] - 1
    c = coeffs.copy()
    c[1:n, :] /= 2
    c[:, 1:n] /= 2
    return dct(dct(c, type=1, axis=0), type=1, axis=1)


def values_to_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant of Lobatto samples."""
    n = values.shape[0] - 1
    c = dct(dct(values, type=1, axis=0), type=1, axis=1) / (n * n)
    c[0, :] /= 2
    c[n, :] /= 2
    c[:, 0] /= 2
    c[:, n] /= 2
    return c


def fuse(m1: cf.ChebDensity, m2: cf.ChebDensity) -> cf.ChebDensity:
    """Four-term conjunctive fusion with products on the doubled (2n+1)^2 grid."""
    if m1.degree != m2.degree:
        raise ValueError(f"degree mismatch: {m1.degree} vs {m2.degree}")
    n = m1.degree
    big = 2 * n

    def padded_values(coeffs: np.ndarray) -> np.ndarray:
        padded = np.zeros((big + 1, big + 1))
        padded[: coeffs.shape[0], : coeffs.shape[1]] = coeffs
        return coeffs_to_values(padded)

    total = np.zeros((big + 1, big + 1))
    for a, b in ((m1, m2), (m2, m1)):
        pa = axis_cumulative(a.coeffs, axis=0, full_at=1)      # P_a
        qb = axis_cumulative(b.coeffs, axis=1, full_at=-1)     # Q_b
        fb = axis_cumulative(qb, axis=0, full_at=1)            # F_b
        total += padded_values(a.coeffs) * padded_values(fb)
        total += padded_values(pa) * padded_values(qb)
    coeffs = values_to_coeffs(total)
    return cf.ChebDensity(coeffs[: n + 1, : n + 1].copy())


def fuse_full(m1: cf.ChebDensity, m2: cf.ChebDensity) -> cf.ChebDensity:
    """Four-term conjunctive fusion of the full series on the 3/2-rule grid."""
    if m1.degree != m2.degree:
        raise ValueError(f"degree mismatch: {m1.degree} vs {m2.degree}")
    cf._require_normalized(m1)
    cf._require_normalized(m2)
    n = m1.degree
    size = cf._alias_free_size(n, n)
    total = np.zeros((size + 1, size + 1))
    for a, b in ((m1, m2), (m2, m1)):
        pa = cf._axis_cumulative(a.coeffs, axis=0, full_at=1)      # P_a
        qb = cf._axis_cumulative(b.coeffs, axis=1, full_at=-1)     # Q_b
        fb = cf._axis_cumulative(qb, axis=0, full_at=1)            # F_b
        total += cf._coeffs_to_values(a.coeffs, size) * cf._coeffs_to_values(fb, size)
        total += cf._coeffs_to_values(pa, size) * cf._coeffs_to_values(qb, size)
    return cf.ChebDensity(cf._values_to_coeffs(total, n))


def fuse_unchopped(m1: cf.ChebDensity, m2: cf.ChebDensity) -> cf.ChebDensity:
    """``chebfusion.fuse`` as it was before it chopped its product.

    The inputs are chopped and fused on the same grid, and every kept mode,
    min(n, 2k+1) + 1 per axis, is returned.
    """
    cf._require_normalized(m1)
    cf._require_normalized(m2)
    n = max(m1.degree, m2.degree)
    m1, m2 = (m if m.degree == n else cf.ChebDensity._from_block(m._block, n) for m in (m1, m2))
    k = max(cf.chop(m1), cf.chop(m2))
    keep = min(n, 2 * k + 1)
    size = cf._alias_free_size(k, keep)
    total = np.zeros((size + 1, size + 1))
    for a, b in ((m1, m2), (m2, m1)):
        ca, cb = a._leading(k + 1), b._leading(k + 1)
        pa = cf._axis_cumulative(ca, axis=0, full_at=1)      # P_a
        qb = cf._axis_cumulative(cb, axis=1, full_at=-1)     # Q_b
        fb = cf._axis_cumulative(qb, axis=0, full_at=1)      # F_b
        total += cf._coeffs_to_values(ca, size) * cf._coeffs_to_values(fb, size)
        total += cf._coeffs_to_values(pa, size) * cf._coeffs_to_values(qb, size)
    return cf.ChebDensity._from_block(cf._values_to_coeffs(total, keep), n)


def cell_fusion(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Conjunctive fusion of two square cell-mass arrays, via separable prefix sums.

    Cell (x, y) is the generalized interval from cell x to cell y, x > y
    allowed; a pair of cells lands on (max of the x indices, min of the y
    indices).  Splitting on which operand attains the extremes gives four
    prefix-sum terms.  Float arrays and ``dtype=object`` arrays of
    ``Fraction``s both work; the latter fuse exactly.
    """

    def lower_incl(a):  # sum over x' <= x
        return np.cumsum(a, axis=0)

    def upper_incl(a):  # sum over y' >= y
        return np.cumsum(a[:, ::-1], axis=1)[:, ::-1]

    def box(a):  # sum over x' <= x, y' >= y
        return np.cumsum(upper_incl(a), axis=0)

    upper_strict_1 = upper_incl(a1) - a1
    return (
        a1 * box(a2)
        + upper_strict_1 * lower_incl(a2)
        + (lower_incl(a1) - a1) * upper_incl(a2)
        + (np.cumsum(upper_strict_1, axis=0) - upper_strict_1) * a2
    )
