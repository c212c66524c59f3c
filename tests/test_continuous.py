import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dsmfuse import chebfusion as cf

import demo_closed_form as dcf
import fusion_oracle
import text_oracle

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
    """Discrete conjunctive fusion on a g x g cell grid.

    Each cell is an atomic interval with mass density * area, and the cell
    masses are fused by :func:`fusion_oracle.cell_fusion`.
    """
    h = 2.0 / g
    ax = -1 + (np.arange(g) + 0.5) * h
    a1 = cf.evaluate(m1, ax[:, None], ax[None, :]) * h * h
    a2 = cf.evaluate(m2, ax[:, None], ax[None, :]) * h * h
    return ax, fusion_oracle.cell_fusion(a1, a2) / (h * h)


@pytest.fixture(scope="module")
def m1():
    return cf.normalize(cf.fit(MM1, 128))


@pytest.fixture(scope="module")
def m2():
    return cf.normalize(cf.fit(MM2, 128))


def test_interval_properties():
    iv = cf.GeneralizedInterval(-0.5, 0.5)
    assert (iv.lo, iv.hi) == (-0.5, 0.5)
    # hi < lo describes a contradiction and is kept as given
    contradiction = cf.GeneralizedInterval(0.5, -0.5)
    assert (contradiction.lo, contradiction.hi) == (0.5, -0.5)
    with pytest.raises(ValueError, match=re.escape("interval endpoints must lie in [-1, 1]")):
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
    with pytest.raises(ValueError, match=re.escape("evaluation point outside [-1, 1]^2")):
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
    with pytest.raises(ValueError, match="cannot normalize: total mass"):
        cf.normalize(cf.ChebDensity(np.zeros((3, 3))))


@pytest.mark.parametrize("rows, text", [
    ([[0.0, 0.0], [0.0, 0.0]], "total mass 0.0 <= 0"),
    ([[-1.0, 0.0], [0.0, 0.0]], "total mass -4.0 <= 0"),
    ([[1e308, 1e308], [1e308, 1e308]], "total mass nan is not finite"),
    ([[1e308, 0.0], [0.0, 0.0]], "total mass inf is not finite"),
    ([[-1e308, 0.0], [0.0, 0.0]], "total mass -inf is not finite"),
])
def test_normalize_names_why_it_cannot(rows, text):
    # A NaN total is not "<= 0"; an infinite one has no finite scale.
    with np.errstate(all="ignore"), pytest.raises(ValueError) as raised:
        cf.normalize(cf.ChebDensity(rows))
    assert str(raised.value) == f"cannot normalize: {text}"


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
    with pytest.raises(ValueError, match=re.escape("density is not normalized (integral")):
        cf.belief(unnormalized, cf.GeneralizedInterval(0, 0))


@pytest.mark.parametrize("degree", [64, 128, 512])
def test_belief_form_matches_the_belief_surface(degree):
    # The bilinear form replaced evaluating the corner cumulative; that
    # surface, summed by evaluate, is its oracle.  Fitted and fused densities
    # at seeded centres, probed at the four corners and 200 seeded points.
    rng = np.random.default_rng(degree)
    m1, m2 = (cf.normalize(cf.fit(cf.gaussian(*rng.uniform(-1, 1, 2)), degree)) for _ in range(2))
    points = [(-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0), (1.0, -1.0)]
    points += [tuple(p) for p in rng.uniform(-1, 1, (200, 2)).tolist()]
    for m in (m1, m2, cf.fuse(m1, m2)):
        surface = cf.cumulative(m, corner=(-1, 1))
        for lo, hi in points:
            form = cf.belief(m, cf.GeneralizedInterval(lo, hi))
            assert abs(form - cf.evaluate(surface, lo, hi)) <= 2e-15, (degree, lo, hi)


def test_trailing_zero_coefficients_change_no_value(m1):
    # evaluate and the belief surface run on the leading nonzero block, so a
    # zero-padded copy gives the same values and a padded surface.
    padded = cf.ChebDensity(np.pad(m1.coeffs, (0, 71)))
    assert np.array_equal(padded._block, m1._block)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-1, 1, (2, 500))
    assert np.max(np.abs(cf.evaluate(padded, x, y) - cf.evaluate(m1, x, y))) <= 1e-15
    axis, values = cf.grid_samples(padded, 33)
    assert np.max(np.abs(values - cf.grid_samples(m1, 33)[1])) <= 1e-15
    assert abs(cf.evaluate(padded, x[0], y[0]) - cf.evaluate(m1, x[0], y[0])) <= 1e-15
    surface, plain = cf.belief_surface(padded), cf.belief_surface(m1)
    assert surface.degree == padded.degree + 1
    assert np.array_equal(surface.coeffs[: m1.degree + 2, : m1.degree + 2], plain.coeffs)
    assert not surface.coeffs[m1.degree + 2 :].any() and not surface.coeffs[:, m1.degree + 2 :].any()
    for lo, hi in zip(x[:8], y[:8]):
        iv = cf.GeneralizedInterval(lo, hi)
        assert abs(cf.belief(padded, iv) - cf.belief(m1, iv)) <= 1e-15


@pytest.mark.parametrize("degree", [16, 17, 31, 64, 128, 257, 512])
def test_chop_keeps_full_spectrum_series(degree):
    rng = np.random.default_rng(degree)
    assert cf.chop(cf.ChebDensity(rng.standard_normal((degree + 1, degree + 1)))) == degree


def test_chop_keeps_every_series_below_degree_16():
    rng = np.random.default_rng(15)
    for degree in range(16):
        assert cf.chop(cf.ChebDensity(rng.standard_normal((degree + 1, degree + 1)))) == degree
        c = np.zeros((degree + 1, degree + 1))
        c[0, 0] = 0.25
        assert cf.chop(cf.ChebDensity(c)) == degree


@pytest.mark.parametrize("degree", [16, 17, 64, 512])
def test_chop_cuts_a_constant_to_degree_0(degree):
    c = np.zeros((degree + 1, degree + 1))
    c[0, 0] = 0.25
    assert cf.chop(cf.ChebDensity(c)) == 0
    assert cf.chop(cf.ChebDensity(np.zeros((degree + 1, degree + 1)))) == 0


def test_chop_finds_the_same_degree_at_any_fitted_degree():
    for f in (MM1, MM2):
        k128 = cf.chop(cf.normalize(cf.fit(f, 128)))
        assert 16 <= k128 < 64
        assert cf.chop(cf.normalize(cf.fit(f, 512))) == k128


def test_fit_keeps_only_the_resolved_block():
    # The demo Gaussians chop to about 24, so fit keeps a level-64 block at
    # most, zero-padded to the requested degree.
    for f in (MM1, MM2):
        d = cf.fit(f, 512)
        assert d.degree == 512 and max(d._block.shape) <= 65


def test_fit_of_a_column_or_a_scalar_equals_the_fit_of_its_full_grid():
    for f, full in (
        (lambda x, y: np.exp(-x**2), lambda x, y: np.exp(-x**2) + 0 * y),
        (lambda x, y: 0.75, lambda x, y: 0.75 + 0 * x * y),
    ):
        d, expected = cf.fit(f, 512), cf.fit(full, 512)
        assert d.degree == expected.degree == 512
        assert d._block.shape == expected._block.shape
        assert d._block.tobytes() == expected._block.tobytes()


def test_chop_at_degree_512_takes_about_a_millisecond():
    d = cf.normalize(cf.fit(MM1, 512))
    times = []
    for _ in range(50):
        start = time.perf_counter()
        cf.chop(d)
        times.append(time.perf_counter() - start)
    assert min(times) <= 1e-3


def test_density_equality_and_hash_are_by_identity():
    d = cf.ChebDensity([[0.25, 0], [0, 0]])
    twin = cf.ChebDensity([[0.25, 0], [0, 0]])
    assert d == d
    assert d != twin
    assert hash(d) == hash(d)
    assert {d, twin, d} == {d, twin}


def test_a_density_holds_its_block(m1, m2):
    # Results hold the block past which every coefficient is +0.0, the block
    # the public constructor finds in their full matrix; the full matrix is
    # built once, on first use, and neither can be written.
    fused = cf.fuse(m1, m2)
    for d in (cf.fit(MM1, 128), m1, fused, cf.cumulative(fused, (-1, 1))):
        assert d._block.shape[0] < d.degree + 1
        assert np.array_equal(cf.ChebDensity(d.coeffs)._block, d._block)
        assert d.coeffs is d.coeffs and d.coeffs.shape == (d.degree + 1, d.degree + 1)
        for c in (d._block, d.coeffs):
            with pytest.raises(ValueError):
                c[0, 0] = 1.0
        with pytest.raises(AttributeError, match="a ChebDensity is read-only"):
            d.degree = 3
    c = np.zeros((5, 5))
    c[0, 0], c[1, 2] = 0.25, -0.0
    d = cf.ChebDensity(c)
    c[0, 0] = 1.0
    assert d._block.tolist() == [[0.25, 0.0, 0.0], [0.0, 0.0, -0.0], [0.0, 0.0, 0.0]]
    assert np.signbit(d.coeffs[1, 2]) and d.degree == 4


def test_block_storage_keeps_degree_512_memory_small():
    # At degree 512 a full coefficient matrix takes 2 MiB; the demo densities
    # resolve at degree 24, so fusing and integrating them stays far below.
    mm1, mm2 = cf.fit(MM1, 512), cf.fit(MM2, 512)
    tracemalloc.start()
    try:
        def traced(step, *args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = step(*args)
            current, peak = tracemalloc.get_traced_memory()
            return result, current - start, peak - start
        m1, kept1, _ = traced(cf.normalize, mm1)
        m2, kept2, _ = traced(cf.normalize, mm2)
        fused, kept_fused, fuse_peak = traced(cf.fuse, m1, m2)
        surface, kept_surface, _ = traced(cf.belief_surface, fused)
    finally:
        tracemalloc.stop()
    assert fused.degree == 512 and surface.degree == 513
    assert fuse_peak < 1 << 20
    for kept in (kept1, kept2, kept_fused, kept_surface):
        assert kept < 256 << 10


def test_unnormalized_belief_raises_on_every_call():
    d = cf.fit(MM1, 32)
    for _ in range(2):
        with pytest.raises(ValueError, match="not normalized"):
            cf.belief(d, cf.GeneralizedInterval(0, 0))
        with pytest.raises(ValueError, match="not normalized"):
            cf.belief_surface(d)


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


def test_fuse_pads_the_lower_degree_input(m1):
    low = cf.normalize(cf.fit(MM2, 64))
    padded = cf.ChebDensity(np.pad(low.coeffs, (0, m1.degree - low.degree)))
    for pair, padded_pair in (((m1, low), (m1, padded)), ((low, m1), (padded, m1))):
        fused = cf.fuse(*pair)
        assert fused.degree == m1.degree
        assert np.array_equal(fused.coeffs, cf.fuse(*padded_pair).coeffs)


def test_fuse_matches_grid_oracle():
    n1 = cf.normalize(cf.fit(MM1, 32))
    n2 = cf.normalize(cf.fit(MM2, 32))
    fused = cf.fuse(n1, n2)
    ax, oracle = grid_fusion_oracle(n1, n2, 201)
    spectral = cf.evaluate(fused, ax[:, None], ax[None, :])
    assert np.abs(spectral - oracle).max() < 1e-2



def test_grid_oracle_converges_at_second_order(m1, m2):
    # The cell-grid fusion approaches the spectral one as the grid refines:
    # each halving of the cell width cuts the max error about fourfold.
    fused = cf.fuse(m1, m2)
    errors = []
    for g in (25, 50, 100, 200):
        ax, oracle = grid_fusion_oracle(m1, m2, g)
        spectral = cf.evaluate(fused, ax[:, None], ax[None, :])
        errors.append(np.abs(spectral - oracle).max())
    assert all(coarse / fine >= 3.5 for coarse, fine in zip(errors, errors[1:]))

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


def test_coeff_file_roundtrip(tmp_path, m1):
    path = tmp_path / "m1.cheb"
    cf.save_coeffs(m1, path)
    loaded = cf.load_coeffs(path)
    assert np.array_equal(loaded.coeffs, m1.coeffs)


@pytest.mark.parametrize("row, col", [(2, 2), (3, 0), (0, 3)])
def test_coeff_file_keeps_a_trailing_negative_zero(tmp_path, row, col):
    # A -0.0 past the last nonzero coefficient reads back and is written again.
    rows = [["0.0"] * 4 for _ in range(4)]
    rows[0][0], rows[1][1], rows[row][col] = "0.25", "0.5", "-0.0"
    path, again = tmp_path / "a.cheb", tmp_path / "b.cheb"
    path.write_text("cheb2d 3\n" + "".join(" ".join(r) + "\n" for r in rows))
    cf.save_coeffs(cf.load_coeffs(path), again)
    assert again.read_bytes() == path.read_bytes()


ZERO_ROW = "0.0 0.0 0.0 0.0 0.0"


@pytest.mark.parametrize("first, second", [
    ("0.25 0.0 0.0 0.0 0.5", ZERO_ROW),     # wider than the rows above the zero run
    ("0.25 0.0 0.0 0.0 -0.0", ZERO_ROW),    # a trailing -0.0 is a value too
    (ZERO_ROW, "0.0 0.0 1.5 0.0 0.0"),      # a writer zero row above a value
    (ZERO_ROW, ZERO_ROW),                   # no row above the zero run
    ("0 0 0 0 0", ZERO_ROW),                # zeros written another way
    ("0.25 0.0 nan 0.0 0.0", ZERO_ROW),
    ("0.25 0.0 0.0 0.0 -inf", ZERO_ROW),
])
def test_reader_builds_the_density_above_the_trailing_zero_rows(tmp_path, first, second):
    # Rows 2-4 are the writer's zero rows and are not made an array.
    path = tmp_path / "a.cheb"
    path.write_text(f"cheb2d 4\n{first}\n{second}\n" + f"{ZERO_ROW}\n" * 3)
    rows = [[float(t) for t in line.split()] for line in path.read_text().splitlines()[1:]]
    try:
        expected = cf.ChebDensity(rows)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(f"{path}: {exc}")):
            cf.load_coeffs(path)
        return
    d = cf.load_coeffs(path)
    assert d.degree == expected.degree == 4
    assert d._block.shape == expected._block.shape
    assert d._block.tobytes() == expected._block.tobytes()


def test_constructor_rejects_a_non_square_or_non_finite_matrix():
    for coeffs in ([[1.0, 2.0]], [1.0, 2.0]):
        with pytest.raises(ValueError, match="coefficient matrix must be square"):
            cf.ChebDensity(coeffs)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        cf.ChebDensity([[math.nan]])


def test_cumulative_rejects_a_corner_off_the_square():
    m = cf.normalize(cf.fit(MM1, 16))
    for corner in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match=re.escape(
            f"corner coordinates must be -1 or +1, got {corner}"
        )):
            cf.cumulative(m, corner=corner)


def test_grid_size_below_two_is_rejected(tmp_path):
    d = cf.normalize(cf.fit(MM1, 16))
    path = tmp_path / "one.grid"
    with pytest.raises(ValueError, match="grid size must be >= 2"):
        cf.grid_samples(d, 1)
    with pytest.raises(ValueError, match="grid size must be >= 2"):
        cf.save_grid(d, path, g=1)
    assert not path.exists()


def test_coeff_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cheb"
    path.write_text("not a header\n")
    with pytest.raises(ValueError):
        cf.load_coeffs(path)


def test_grid_file_roundtrip(tmp_path):
    d = cf.normalize(cf.fit(MM1, 32))
    path = tmp_path / "m1.grid"
    cf.save_grid(d, path, g=33)
    axis, values = text_oracle.load_grid(path)
    direct_axis, direct = cf.grid_samples(d, 33)
    assert np.allclose(axis, direct_axis)
    assert np.allclose(values, direct, atol=1e-11)


def test_grid_file_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.grid"
    for text in ("0 0 1\n0 y 2\n", "0 0 1\nx 0 2\n", "0 0 1\n0 0\n", "0 0 1 2\n",
                 "0 0 1\n0 0 2\n\n1 0 3\n"):
        path.write_text(text)
        with pytest.raises(ValueError):
            text_oracle.load_grid(path)


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
    # load_coeffs reads the same array, or raises the same error, as the
    # per-scalar reader it replaced, except that every error it raises is a
    # plain ValueError whose text starts with the path.
    path = tmp_path / "fuzz"
    path.write_bytes(data)
    outcomes = []
    for reader in (cf.load_coeffs, text_oracle.load_coeffs):
        try:
            c = reader(path).coeffs
            outcomes.append((c.shape, c.tobytes()))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    got, want = outcomes
    if isinstance(want[1], str) and not want[1].startswith(f"{path}: "):
        want = (ValueError, f"{path}: {want[1]}")
    assert got == want
    try:
        text_oracle.load_grid(path)
    except ValueError:
        pass
