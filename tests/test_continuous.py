import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dsmfuse import chebfusion as cf

import demo_closed_form as dcf

MM1 = cf.gaussian(-1.0, 0.0)
MM2 = cf.gaussian(0.0, 1.0)

# closed form of the full integral of MM1 over the square
MM1_INTEGRAL = (math.sqrt(math.pi) / 2 * math.erf(2)) * (
    math.sqrt(math.pi) * math.erf(1)
)


def midpoint_quadrature(f, g=400):
    h = 2.0 / g
    ax = -1 + (np.arange(g) + 0.5) * h
    return float(np.sum(f(ax[:, None], ax[None, :])) * h * h)


def grid_fusion_oracle(m1, m2, g):
    """Discrete conjunctive fusion on a cell grid, via separable prefix sums.

    Each cell is an atomic interval with mass density * area; a pair of cells
    lands on (max of the x indices, min of the y indices).  Splitting on
    which operand attains the extremes gives four prefix-sum terms.
    """
    h = 2.0 / g
    ax = -1 + (np.arange(g) + 0.5) * h
    a1 = cf.evaluate(m1, ax[:, None], ax[None, :]) * h * h
    a2 = cf.evaluate(m2, ax[:, None], ax[None, :]) * h * h

    def lower_incl(a):  # sum over x' <= x
        return np.cumsum(a, axis=0)

    def upper_incl(a):  # sum over y' >= y
        return np.cumsum(a[:, ::-1], axis=1)[:, ::-1]

    def box(a):  # sum over x' <= x, y' >= y
        return np.cumsum(upper_incl(a), axis=0)

    upper_strict_1 = upper_incl(a1) - a1
    fused = (
        a1 * box(a2)
        + upper_strict_1 * lower_incl(a2)
        + (lower_incl(a1) - a1) * upper_incl(a2)
        + (np.cumsum(upper_strict_1, axis=0) - upper_strict_1) * a2
    )
    return ax, fused / (h * h)


@pytest.fixture(scope="module")
def m1():
    return cf.normalize(cf.fit(MM1, 128))


@pytest.fixture(scope="module")
def m2():
    return cf.normalize(cf.fit(MM2, 128))


def test_interval_properties():
    iv = cf.GeneralizedInterval(-0.5, 0.5)
    assert iv.width == 0.5
    assert iv.center == 0.0
    contradiction = cf.GeneralizedInterval(0.5, -0.5)
    assert contradiction.width == -0.5
    with pytest.raises(ValueError):
        cf.GeneralizedInterval(-1.5, 0)


def test_interval_meet():
    a = cf.GeneralizedInterval(-0.5, 0.5)
    b = cf.GeneralizedInterval(0.0, 1.0)
    assert cf.interval_meet(a, b) == cf.GeneralizedInterval(0.0, 0.5)
    assert cf.interval_meet(a, a) == a
    zero = cf.interval_meet(
        cf.GeneralizedInterval(-1, 0), cf.GeneralizedInterval(0, 1)
    )
    assert zero == cf.GeneralizedInterval(0.0, 0.0)
    assert zero.width == 0.0


def test_fit_single_basis_function():
    f = lambda x, y: np.cos(2 * np.arccos(np.clip(x, -1, 1))) * np.cos(
        3 * np.arccos(np.clip(y, -1, 1))
    )
    d = cf.fit(f, 8)
    expected = np.zeros((9, 9))
    expected[2, 3] = 1.0
    assert np.abs(d.coeffs - expected).max() < 1e-13


def test_fit_constant():
    d = cf.fit(lambda x, y: 1.0, 4)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.abs(d.coeffs - expected).max() < 1e-14


def test_fit_rejects_bad_degree():
    with pytest.raises(ValueError):
        cf.fit(MM1, 100)
    with pytest.raises(ValueError):
        cf.fit(lambda x, y: x / 0 if False else np.full_like(x * y, np.nan), 4)


def test_fit_interpolates_at_nodes():
    d = cf.fit(MM1, 32)
    nodes = cf.lobatto_nodes(32)
    values = cf.evaluate(d, nodes[:, None], nodes[None, :])
    assert np.abs(values - MM1(nodes[:, None], nodes[None, :])).max() < 1e-13


def test_fit_gaussian_probe_grid():
    d = cf.fit(MM1, 128)
    probe = np.linspace(-1, 1, 101)
    values = cf.evaluate(d, probe[:, None], probe[None, :])
    assert np.abs(values - MM1(probe[:, None], probe[None, :])).max() < 1e-12


def test_evaluate_examples():
    quarter = cf.ChebDensity(np.diag([0.25] + [0.0] * 4))
    assert cf.evaluate(quarter, 0.3, -0.7) == pytest.approx(0.25)
    d = cf.fit(MM1, 32)
    assert cf.evaluate(d, 0.0, 0.0) == pytest.approx(math.exp(-1), abs=1e-10)
    with pytest.raises(ValueError):
        cf.evaluate(d, 1.5, 0.0)


@pytest.mark.parametrize("degree", [64, 128])
def test_evaluate_scattered_matches_clenshaw_oracle(degree):
    # numpy's chebval2d (Clenshaw per point) is the former scattered-point path.
    rng = np.random.default_rng(degree)
    m1, m2 = (cf.normalize(cf.fit(f, degree)) for f in (MM1, MM2))
    x, y = rng.uniform(-1, 1, (2, 3000))
    for d in (m1, m2, cf.fuse(m1, m2)):
        bound = 1e-14 * np.abs(d.coeffs).max()
        oracle = C.chebval2d(x, y, d.coeffs)
        assert np.abs(cf.evaluate(d, x, y) - oracle).max() <= bound
        square = cf.evaluate(d, x[:100].reshape(10, 10), y[:100].reshape(10, 10))
        assert square.shape == (10, 10)
        assert np.abs(square.ravel() - oracle[:100]).max() <= bound
        scalar = cf.evaluate(d, x[0], y[0])
        assert isinstance(scalar, float) and abs(scalar - oracle[0]) <= bound


def test_integral_basics():
    c = np.zeros((3, 3))
    c[0, 0] = 1.0
    assert cf.integral_full(cf.ChebDensity(c)) == pytest.approx(4.0)
    c = np.zeros((3, 3))
    c[1, 0] = 1.0
    assert cf.integral_full(cf.ChebDensity(c)) == pytest.approx(0.0)


def test_integral_gaussian_against_quadrature_and_closed_form():
    d = cf.fit(MM1, 128)
    total = cf.integral_full(d)
    assert total == pytest.approx(MM1_INTEGRAL, abs=1e-12)
    assert total == pytest.approx(midpoint_quadrature(MM1), abs=1e-4)


def test_normalize():
    d = cf.fit(lambda x, y: 1.0, 4)
    n = cf.normalize(d)
    assert cf.evaluate(n, 0.1, 0.2) == pytest.approx(0.25)
    n2 = cf.normalize(cf.fit(MM1, 64))
    assert cf.integral_full(n2) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(cf.normalize(n2).coeffs - n2.coeffs).max() < 1e-15
    with pytest.raises(ValueError):
        cf.normalize(cf.ChebDensity(np.zeros((3, 3))))


def test_axis_antiderivative_of_t1():
    c = np.zeros((3, 3))
    c[1, 0] = 1.0
    anti = cf._axis_cumulative(c, axis=0, full_at=1)
    # x^2/2 = (T2 + T0)/4, shifted to vanish at -1
    assert anti[2, 0] == pytest.approx(0.25)
    assert anti[1, 0] == pytest.approx(0.0)
    assert anti[0, 0] == pytest.approx(-0.25)


def test_cumulative_total_mass_corner(m1):
    cum = cf.cumulative(m1, corner=(-1, 1))
    assert cf.evaluate(cum, -1.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    # the far-corner value agrees with the direct integral
    cum2 = cf.cumulative(m1, corner=(1, 1))
    assert cf.evaluate(cum2, 1.0, 1.0) == pytest.approx(
        cf.integral_full(m1), abs=1e-10
    )


def test_belief_surface_against_riemann_oracle(m1):
    # midpoint cells, probed at interior cell edges so each cell lies
    # entirely inside or outside the accumulation region
    g = 300
    h = 2.0 / g
    centers = -1 + (np.arange(g) + 0.5) * h
    edges = -1 + np.arange(1, g) * h
    mass = cf.evaluate(m1, centers[:, None], centers[None, :]) * h * h
    # Bel at edge (x_k, y_l) = sum of cells with row index >= k, col index < l
    upper = np.cumsum(mass[::-1, :], axis=0)[::-1, :]  # rows i..g-1
    bel_edges = np.cumsum(upper, axis=1)[1:, :-1]  # rows 1..g-1, cols <l for l=1..g-1
    surface = cf.belief_surface(m1)
    probe = cf.evaluate(surface, edges[:, None], edges[None, :])
    assert np.abs(probe - bel_edges).max() < 1e-4


def test_belief_examples(m1):
    assert cf.belief(m1, cf.GeneralizedInterval(-1, 1)) == pytest.approx(1.0, abs=1e-9)
    assert cf.belief(m1, cf.GeneralizedInterval(1, -1)) == pytest.approx(0.0, abs=1e-9)
    value = cf.belief(m1, cf.GeneralizedInterval(0, 0))
    assert 0 <= value <= 1
    unnormalized = cf.fit(MM1, 32)
    with pytest.raises(ValueError):
        cf.belief(unnormalized, cf.GeneralizedInterval(0, 0))


def test_belief_monotone_under_containment(m1):
    rng = np.random.default_rng(0)
    surface = cf.belief_surface(m1)
    lo = rng.uniform(-1, 1, 500)
    hi = rng.uniform(-1, 1, 500)
    wider_lo = np.maximum(lo - rng.uniform(0, 0.5, 500), -1)
    wider_hi = np.minimum(hi + rng.uniform(0, 0.5, 500), 1)
    narrow = cf.evaluate(surface, lo, hi)
    wide = cf.evaluate(surface, wider_lo, wider_hi)
    assert np.all(wide >= narrow - 1e-9)


def test_fuse_conserves_mass(m1, m2):
    fused = cf.fuse(m1, m2)
    assert cf.integral_full(fused) == pytest.approx(1.0, abs=1e-6)


def test_fuse_commutes(m1, m2):
    f12 = cf.fuse(m1, m2)
    f21 = cf.fuse(m2, m1)
    assert np.abs(f12.coeffs - f21.coeffs).max() < 1e-10


def test_fuse_degree_mismatch(m1):
    with pytest.raises(ValueError):
        cf.fuse(m1, cf.normalize(cf.fit(MM2, 64)))


def test_fuse_matches_grid_oracle():
    n1 = cf.normalize(cf.fit(MM1, 32))
    n2 = cf.normalize(cf.fit(MM2, 32))
    fused = cf.fuse(n1, n2)
    ax, oracle = grid_fusion_oracle(n1, n2, 201)
    spectral = cf.evaluate(fused, ax[:, None], ax[None, :])
    assert np.abs(spectral - oracle).max() < 1e-2


def test_fused_density_moves_toward_agreement(m1, m2):
    fused = cf.fuse(m1, m2)
    probe = np.linspace(-1, 1, 256)
    values = cf.evaluate(fused, probe[:, None], probe[None, :])
    i, j = np.unravel_index(np.argmax(values), values.shape)
    # refine on the continuous series within a probe step of the probe peak
    step = probe[1] - probe[0]
    fine_x = np.clip(np.linspace(probe[i] - step, probe[i] + step, 401), -1, 1)
    fine_y = np.clip(np.linspace(probe[j] - step, probe[j] + step, 401), -1, 1)
    fine = cf.evaluate(fused, fine_x[:, None], fine_y[None, :])
    k, l = np.unravel_index(np.argmax(fine), fine.shape)
    # the peak interval sits at the closed-form (x*, -x*), so its center is 0
    fine_step = 2 * step / 400
    assert abs(fine_x[k] - dcf.X_STAR) <= fine_step
    assert abs(fine_y[l] + dcf.X_STAR) <= fine_step


def test_remap():
    f = cf.remap(lambda x, y: x + y, 0.0, 2.0)
    assert f(-1.0, -1.0) == pytest.approx(0.0)
    assert f(1.0, 1.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        cf.remap(lambda x, y: x, 1.0, 1.0)


def test_coeff_file_roundtrip(tmp_path, m1):
    path = tmp_path / "m1.cheb"
    cf.save_coeffs(m1, path)
    loaded = cf.load_coeffs(path)
    assert np.array_equal(loaded.coeffs, m1.coeffs)


def test_coeff_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cheb"
    path.write_text("not a header\n")
    with pytest.raises(ValueError):
        cf.load_coeffs(path)


def test_grid_file_roundtrip(tmp_path):
    d = cf.normalize(cf.fit(MM1, 32))
    path = tmp_path / "m1.grid"
    cf.save_grid(d, path, g=33)
    axis, values = cf.load_grid(path)
    direct_axis, direct = cf.grid_samples(d, 33)
    assert np.allclose(axis, direct_axis)
    assert np.allclose(values, direct, atol=1e-11)


def test_grid_file_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.grid"
    for text in ("0 0 1\n0 y 2\n", "0 0 1\nx 0 2\n", "0 0 1\n0 0\n", "0 0 1 2\n",
                 "0 0 1\n0 0 2\n\n1 0 3\n"):
        path.write_text(text)
        with pytest.raises(ValueError):
            cf.load_grid(path)


# Tokens that reach past the header check: small declared sizes (so a file
# never declares more rows than it could hold), numbers, non-finite and
# non-ASCII numerals, and the separators str.split and file iteration treat
# differently.
READER_TOKENS = st.sampled_from(
    ["cheb2d", "cheb2d 0", "cheb2d 1", "cheb2d 2", "0", "1", "-2.5", "1e400", "nan",
     "inf", "x", "\u0663", "1_0", " ", "\t", "\n", "\n\n", "\r", "\x0c", "\x1c",
     "\x85", "\u2028", "\x00"]
)
READER_TEXT = st.one_of(st.text(max_size=200), st.lists(READER_TOKENS, max_size=40).map("".join))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(READER_TEXT.map(lambda t: t.encode("utf-8")), st.binary(max_size=200)))
def test_readers_fuzz(tmp_path, data):
    # Any file ends in a value or a ValueError; UnicodeDecodeError is one.
    path = tmp_path / "fuzz"
    path.write_bytes(data)
    for reader in (cf.load_coeffs, cf.load_grid):
        try:
            reader(path)
        except ValueError:
            pass
