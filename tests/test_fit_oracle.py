"""The adaptive fit against the full-grid transform it replaced."""

import numpy as np
import pytest

from dsmfuse import chebfusion as cf

from fit_oracle import fit_full

EPS = np.finfo(float).eps
DEMO_PAIR = ((-1.0, 0.0), (0.0, 1.0))


def seeded_pairs():
    rng = np.random.default_rng(14)
    return [DEMO_PAIR] + [tuple(tuple(rng.uniform(-1, 1, 2)) for _ in range(2)) for _ in range(16)]


def node_residual(d, f, n=None):
    """max |d - f| over the (n+1)^2 Lobatto nodes (n = d.degree), in units of max|f|."""
    n = d.degree if n is None else n
    x = cf.lobatto_nodes(n)
    values = np.broadcast_to(f(x[:, None], x[None, :]), (n + 1, n + 1))
    return np.abs(cf.evaluate(d, x[:, None], x[None, :]) - values).max() / np.abs(values).max()


def pipeline(fitter, pair, degree):
    fitted = [fitter(cf.gaussian(*c), degree) for c in pair]
    normalized = [cf.normalize(d) for d in fitted]
    return fitted, normalized, cf.fuse(*normalized)


@pytest.mark.parametrize("degree", [128, 512])
def test_gaussian_pipeline_matches_full_transform(degree):
    rng = np.random.default_rng(degree)
    for pair in seeded_pairs():
        fitted, normalized, fused = pipeline(cf.fit, pair, degree)
        fitted0, normalized0, fused0 = pipeline(fit_full, pair, degree)
        assert np.max(np.abs(fused.coeffs - fused0.coeffs)) <= 1e-15, pair
        # One fused belief at degree 128 differs by 1.1e-15 (0.98634273357148 07
        # against 0796); the fit_full pipeline at degree 512 gives 0802, so
        # beliefs get 2e-15, twice the spread of fit_full across degrees.
        intervals = [cf.GeneralizedInterval(lo, hi) for lo, hi in rng.uniform(-1, 1, (8, 2))]
        for d, d0 in zip(normalized + [fused], normalized0 + [fused0]):
            for iv in intervals:
                assert abs(cf.belief(d, iv) - cf.belief(d0, iv)) <= 2e-15, pair
        for c, d, d0 in zip(pair, fitted, fitted0):
            # every seeded Gaussian resolves on a coarse level
            assert d._block.shape[0] <= 65
            assert not d.coeffs[65:].any() and not d.coeffs[:, 65:].any()
            grid = cf.grid_samples(d, 64)[1] - cf.grid_samples(d0, 64)[1]
            assert np.max(np.abs(grid)) <= 2e-15, pair
            assert node_residual(d, cf.gaussian(*c)) <= cf.FIT_RESIDUAL * EPS


def between_level_64_nodes(i):
    # cos(pi (2i+1) / 128): a node of every grid from degree 128 up, and
    # halfway in angle between level-64 nodes i and i+1
    return cf.lobatto_nodes(128)[2 * i + 1]


SPIKE_AT = between_level_64_nodes(20), between_level_64_nodes(40)


def spike(x, y):
    # width 3e-3: below round-off of 1 at every node of the levels 16-64
    return 1.0 + np.exp(-((x - SPIKE_AT[0]) ** 2 + (y - SPIKE_AT[1]) ** 2) / 3e-3**2)


UNRESOLVED = {
    "step": lambda x, y: (x > 0.1) + 0.0 * y,
    "kink": lambda x, y: np.abs(x - 0.3) + np.abs(y),
    "spike": spike,
    "random": lambda x, y: np.random.default_rng(7).standard_normal(np.broadcast(x, y).shape),
}


@pytest.mark.parametrize("name", UNRESOLVED)
@pytest.mark.parametrize("degree", [32, 128, 512])
def test_unresolved_input_is_the_full_transform(name, degree):
    f = UNRESOLVED[name]
    assert np.array_equal(cf.fit(f, degree).coeffs, fit_full(f, degree).coeffs)


def test_spike_between_coarse_nodes_is_caught_on_the_full_grid():
    # The coarse levels see the constant 1 and chop to degree 0; only the
    # full-grid residual check, which finds the spike's height 1 of max|f| = 2,
    # rejects them.
    for level in (16, 32, 64):
        coarse = fit_full(spike, level)
        assert cf.chop(coarse) == 0
        assert node_residual(coarse, spike, 512) == 0.5
    assert cf.fit(spike, 512)._block.shape == (513, 513)


@pytest.mark.parametrize("degree", [2, 4, 8, 16])
def test_degree_16_and_below_is_the_full_transform(degree):
    functions = [cf.gaussian(*c) for c in DEMO_PAIR] + list(UNRESOLVED.values())
    functions += [lambda x, y: 0.25 + 0.0 * x * y, lambda x, y: x**2 * y**3]
    for f in functions:
        assert np.array_equal(cf.fit(f, degree).coeffs, fit_full(f, degree).coeffs)


@pytest.mark.parametrize("degree", [32, 64, 256])
def test_accepted_fits_meet_the_residual_bound(degree):
    functions = [cf.gaussian(*c) for pair in seeded_pairs()[:5] for c in pair]
    functions += [lambda x, y: 0.25 + 0.0 * x * y, lambda x, y: x**2 * y**3 - 0.5,
                  lambda x, y: np.cos(3 * x + y) * np.exp(x * y)]
    accepted = 0
    for f in functions:
        d = cf.fit(f, degree)
        if d._block.shape[0] < degree + 1:
            accepted += 1
            assert node_residual(d, f) <= cf.FIT_RESIDUAL * EPS
        else:
            assert np.array_equal(d.coeffs, fit_full(f, degree).coeffs)
    assert accepted >= 2
