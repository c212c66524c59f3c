"""The adaptive fit against the full-grid transform it replaced, and against
its own former version, whose residual check held the whole grid."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dsmfuse import chebfusion as cf

from fit_oracle import fit_evaluate, fit_full

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


# --- the strip-by-strip residual against fit_evaluate -------------------------

DEGREES = (32, 64, 128, 256, 512)


def seeded_centres(count, seed=25):
    # centres a little past the square too, so some Gaussians peak outside it
    return [tuple(c) for c in np.random.default_rng(seed).uniform(-1.2, 1.2, (count, 2))]


def same_block(d, d0):
    # shape and raw bytes, so a -0.0 against a +0.0 differs
    return d.degree == d0.degree and d._block.shape == d0._block.shape and (
        d._block.tobytes() == d0._block.tobytes())


def test_fit_returns_the_evaluate_residual_blocks_on_seeded_gaussians():
    for i, c in enumerate(seeded_centres(200)):
        degree = DEGREES[i % len(DEGREES)]
        f = cf.gaussian(*c)
        assert same_block(cf.fit(f, degree), fit_evaluate(f, degree)), (c, degree)


ORACLE_CASES = {
    **UNRESOLVED,
    "constant": lambda x, y: 0.25 + 0.0 * x * y,
    "polynomial": lambda x, y: x**2 * y**3 - 0.5,
    "smooth": lambda x, y: np.cos(3 * x + y) * np.exp(x * y),
    "negative": lambda x, y: -np.exp(-x * x - 2 * y * y),
    "column": lambda x, y: np.exp(-(x**2)),
    "scalar": lambda x, y: 0.75,
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_fit_returns_the_evaluate_residual_blocks_on_the_oracle_cases(name):
    f = ORACLE_CASES[name]
    for degree in (2, 4, 8, 16) + DEGREES:
        assert same_block(cf.fit(f, degree), fit_evaluate(f, degree)), degree


# Strip products round differently from the one grid product.  The two
# maxima differed by at most 0.515 eps * max|f| on the 60 blocks below, and by
# 1.0000033 over 360 (60 seeded centres at degrees 128 and 512, levels
# 16-64); accepted fits sit at 2.75-6 of FIT_RESIDUAL's 16.
STRIP_RESIDUAL_BOUND = 2


def test_strip_residual_agrees_with_the_full_grid_residual():
    for i, c in enumerate(seeded_centres(20, seed=7)):
        degree = (128, 512)[i % 2]
        x = cf.lobatto_nodes(degree)
        values = cf.gaussian(*c)(x[:, None], x[None, :])
        scale = EPS * np.abs(values).max()
        for level in (16, 32, 64):
            coarse = cf._values_to_coeffs(values[:: degree // level, :: degree // level], level)
            k = cf.chop(cf.ChebDensity(coarse))
            block = coarse[: k + 1, : k + 1]
            residual = cf.evaluate(cf.ChebDensity(block), x[:, None], x[None, :]) - values
            full = max(residual.max(), -residual.min())
            strips = cf._grid_residual(block, x, values, np.inf)
            assert abs(strips - full) <= STRIP_RESIDUAL_BOUND * scale, (c, degree, level)
            # with a finite tol the scan stops at the first strip past it
            stopped = cf._grid_residual(block, x, values, 100 * scale)
            assert stopped == strips if strips <= 100 * scale else stopped > 100 * scale


def test_strip_residual_scan_stops_at_the_first_strip_past_tol():
    # Residuals of 2 in grid row 200 (strip 12), 4 in row 400 (strip 25) and
    # 6 in row 512, the last strip's one row.
    x = cf.lobatto_nodes(512)
    values = np.ones((513, 513))
    values[200, 7], values[400, 9], values[512, 3] = 3.0, 5.0, 7.0
    assert cf._grid_residual(np.ones((1, 1)), x, values, 1.0) == 2.0
    assert cf._grid_residual(np.ones((1, 1)), x, values, 2.0) == 4.0
    assert cf._grid_residual(np.ones((1, 1)), x, values, 4.0) == 6.0
    assert cf._grid_residual(np.ones((1, 1)), x, values[:, ::-1], np.inf) == 6.0
    values[400, 9] = np.nan
    assert np.isnan(cf._grid_residual(np.ones((1, 1)), x, values, np.inf))


# --- memory and threads -----------------------------------------------------

GRID_BYTES = 513 * 513 * 8


def traced_peak(step):
    """Peak bytes that step() holds above what was allocated before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_fit_and_the_gaussian_sample_hold_about_one_grid():
    # The evaluate-based fit peaked at 2.17 grids and the exp of a fresh
    # exponent at 2.00; strips and an in-place exp give 1.15 and 1.06.
    f = cf.gaussian(0.3, -0.4)
    x = cf.lobatto_nodes(512)
    cf.fit(f, 512)  # transform plans and the like are cached on first use
    assert traced_peak(lambda: cf.fit(f, 512)) < 1.5 * GRID_BYTES
    assert traced_peak(lambda: f(x[:, None], x[None, :])) < 1.25 * GRID_BYTES


THREAD_PROBE = """
import hashlib, numpy as np
from dsmfuse import chebfusion as cf
h = hashlib.sha256()
for i, c in enumerate(np.random.default_rng(3).uniform(-1, 1, (20, 2))):
    for degree in (128, 512):
        block = cf.fit(cf.gaussian(*c), degree)._block
        h.update(repr(block.shape).encode() + block.tobytes())
print(h.hexdigest())
"""


def test_fit_blocks_do_not_depend_on_the_blas_thread_count():
    src = Path(cf.__file__).resolve().parent.parent
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                                capture_output=True, text=True, check=True)
        digests.add(result.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("cx, cy", [(-1.0, 0.0), (0.3, -0.4), (1.1, 2)])
def test_gaussian_equals_its_expression_bit_for_bit(cx, cy):
    x = cf.lobatto_nodes(64)
    f = cf.gaussian(cx, cy)
    for args in [(0.25, -0.5), (np.float64(0.25), -0.5), (x[None, :], 0.1), (x[:, None], x[None, :]),
                 (x[:, None], 0.3), (0.3, x[:, None]), (x.astype(np.float32), 0.1), (np.arange(3), 1)]:
        got, expected = f(*args), np.exp(-((args[0] - cx) ** 2) - (args[1] - cy) ** 2)
        assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
        assert np.asarray(got).dtype == np.asarray(expected).dtype
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def poisoned(bad, shape):
    """A sample of the given shape that holds bad at one node."""
    def f(x, y):
        grid = {"grid": x + y, "row": 0 * x[:1] + y, "column": x + 0 * y[:, :1]}
        if shape == "scalar":
            return bad
        values = np.exp(-(grid[shape] ** 2))
        values.flat[values.size // 3] = bad
        return values
    return f


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", ["grid", "row", "column", "scalar"])
@pytest.mark.parametrize("degree", [16, 512])
def test_non_finite_samples_are_rejected(bad, shape, degree):
    for fitter in (cf.fit, fit_evaluate):
        with pytest.raises(ValueError, match="^sampled values must be finite$"):
            fitter(poisoned(bad, shape), degree)
