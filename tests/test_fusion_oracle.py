"""3/2-rule fusion, the recurrence antiderivative and the real-FFT DCT-I against
the code they replaced."""

import numpy as np
import pytest

from dsmfuse import chebfusion as cf

import fusion_oracle


def random_density(rng, n):
    """Full-spectrum coefficients in [-1, 1], with c[0, 0] set so the integral is 1."""
    c = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
    c[0, 0] = 0.0
    w = cf._cheb_weights(n)
    c[0, 0] = (1.0 - w @ c @ w) / 4.0  # the integral of T_0(x) T_0(y) is 4
    return cf.ChebDensity(c)


# n = 2..70, the 5-smooth grids (M = 50, 54, 60, 64, 75, 80) on which fuse
# samples, and the sizes of fit's levels and of its full transform.
TRANSFORM_SIZES = list(range(2, 71)) + [75, 80, 128, 129, 256, 512]


def test_values_to_coeffs_matches_scipy_dct():
    rng = np.random.default_rng(17)
    for n in TRANSFORM_SIZES:
        values = rng.standard_normal((n + 1, n + 1))
        want = fusion_oracle.values_to_coeffs(values)
        for keep in sorted({1, n // 2, n - 1, n}):
            got = cf._values_to_coeffs(values, keep)
            assert np.array_equal(got, want[: keep + 1, : keep + 1]), (n, keep)


def test_coeffs_to_values_matches_scipy_dct():
    # Inputs of fewer than n+1 rows or columns are zero-padded by the
    # transform; the oracle gets them padded.
    rng = np.random.default_rng(18)
    for n in TRANSFORM_SIZES:
        for rows, cols in ((n + 1, n + 1), (n // 2 + 2, n // 2 + 1), (1, 2)):
            coeffs = rng.standard_normal((rows, cols))
            padded = np.zeros((n + 1, n + 1))
            padded[:rows, :cols] = coeffs
            want = fusion_oracle.coeffs_to_values(padded)
            assert np.array_equal(cf._coeffs_to_values(coeffs, n), want), (n, rows, cols)


def test_fuse_matches_doubled_grid_oracle():
    # Every mode of every product reaches the grid, so an aliased grid would
    # fold O(max|c|) errors into the kept coefficients.
    rng = np.random.default_rng(6)
    for n in range(2, 257, 2):
        m1, m2 = random_density(rng, n), random_density(rng, n)
        got = cf.fuse(m1, m2).coeffs
        want = fusion_oracle.fuse(m1, m2).coeffs
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, f"degree {n}"
        # no round-off plateau, so no chop: the full-degree fusion bit for bit
        assert np.array_equal(got, fusion_oracle.fuse_full(m1, m2).coeffs), f"degree {n}"


@pytest.mark.parametrize("m, n", [(16, 64), (20, 41), (40, 128)])
def test_fuse_of_zero_padded_series_matches_full_degree_fuse(m, n):
    # An exact zero tail chops to the last nonzero degree m, and the fused
    # series keeps every mode up to 2m+1 (at (20, 41) that is all of them).
    rng = np.random.default_rng(m + n)
    m1, m2 = (cf.ChebDensity(np.pad(random_density(rng, m).coeffs, (0, n - m))) for _ in range(2))
    assert cf.chop(m1) == cf.chop(m2) == m
    got = cf.fuse(m1, m2).coeffs
    want = fusion_oracle.fuse_full(m1, m2).coeffs
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.any(got[2 * m + 1]) and not np.any(got[2 * m + 2 :])


@pytest.mark.parametrize("degree", [128, 512])
def test_chopped_fuse_matches_full_degree_fuse_on_gaussians(degree):
    rng = np.random.default_rng(degree)
    pairs = [((-1.0, 0.0), (0.0, 1.0))]  # the fuse-demo pair
    pairs += [tuple(tuple(rng.uniform(-1, 1, 2)) for _ in range(2)) for _ in range(3)]
    for c1, c2 in pairs:
        m1, m2 = (cf.normalize(cf.fit(cf.gaussian(*c), degree)) for c in (c1, c2))
        assert max(cf.chop(m1), cf.chop(m2)) < degree // 4
        got = cf.fuse(m1, m2)
        want = fusion_oracle.fuse_full(m1, m2)
        assert got.degree == degree
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-15, (c1, c2)
        for lo, hi in rng.uniform(-1, 1, (8, 2)):
            iv = cf.GeneralizedInterval(lo, hi)
            assert abs(cf.belief(got, iv) - cf.belief(want, iv)) <= 1e-15, (c1, c2, lo, hi)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_fuse_matches_oracle_on_zero_padded_inputs(n):
    # Padding the inputs with zero coefficients does not change the exact
    # product, so fusing at degree n+1 and truncating to n gives the degree-n
    # fusion.  At degree 1 this is the only alias-free reference: the doubled
    # grid of 3 points folds mode 3 onto mode 1.
    rng = np.random.default_rng(n)
    m1, m2 = random_density(rng, n), random_density(rng, n)
    padded = [cf.ChebDensity(np.pad(m.coeffs, (0, 1))) for m in (m1, m2)]
    want = fusion_oracle.fuse(*padded).coeffs[: n + 1, : n + 1]
    got = cf.fuse(m1, m2).coeffs
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# (65, 66) is the shape of Q_b at degree 64, one of fuse's non-square factors
@pytest.mark.parametrize("shape", [(9, 9), (9, 10), (10, 9), (65, 66), (2, 5), (1, 3)])
@pytest.mark.parametrize("full_at", [-1, 1])
@pytest.mark.parametrize("axis", [0, 1])
def test_axis_cumulative_matches_chebint_oracle(axis, full_at, shape):
    rng = np.random.default_rng(sum(shape) + 10 * axis + full_at)
    c = rng.standard_normal(shape)
    got = cf._axis_cumulative(c, axis=axis, full_at=full_at)
    want = fusion_oracle.axis_cumulative(c, axis=axis, full_at=full_at)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13


def test_alias_free_size_is_the_smallest_fast_alias_free_grid():
    assert cf._alias_free_size(512, 512) == 800
    for n in range(257):
        m = cf._alias_free_size(n, n)
        assert 2 * m > 3 * n + 1 and _five_smooth(2 * m)
        assert not any(2 * k > 3 * n + 1 and _five_smooth(2 * k) for k in range(m))
    for k, keep in ((0, 0), (0, 1), (24, 49), (28, 57), (100, 128)):
        m = cf._alias_free_size(k, keep)
        assert 2 * m > 2 * k + 1 + keep and _five_smooth(2 * m)
        assert not any(2 * j > 2 * k + 1 + keep and _five_smooth(2 * j) for j in range(m))


def _five_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1
