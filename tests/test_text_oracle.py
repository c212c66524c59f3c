"""The list-based text writers and reader against the per-scalar ones they replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dsmfuse import chebfusion as cf

import text_oracle


def densities():
    rng = np.random.default_rng(14)
    fitted = cf.normalize(cf.fit(cf.gaussian(-1.0, 0.0), 128))
    signed = rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-300, 300, (9, 9))
    signed[0, 1], signed[2, 3], signed[4, 4] = -0.0, 0.0, 5e-324
    return [fitted, cf.belief_surface(fitted), cf.ChebDensity(signed),
            cf.ChebDensity(rng.uniform(-1, 1, (33, 33)))]


@pytest.mark.parametrize("index", range(4))
def test_writers_write_the_old_bytes(tmp_path, index):
    d = densities()[index]
    new, old = tmp_path / "new", tmp_path / "old"
    for write, old_write in ((cf.save_coeffs, text_oracle.save_coeffs),
                             (cf.save_grid, text_oracle.save_grid)):
        write(d, new)
        old_write(d, old)
        assert new.read_bytes() == old.read_bytes()
    for g in (2, 3, 7, 65):
        cf.save_grid(d, new, g=g)
        text_oracle.save_grid(d, old, g=g)
        assert new.read_bytes() == old.read_bytes()
    cf.save_coeffs(d, new)
    assert np.array_equal(cf.load_coeffs(new).coeffs, text_oracle.load_coeffs(new).coeffs)


# Ways to write a zero, or a token as long as "0.0", that are not the
# writer's "0.0": "-0." reads as -0.0 in a row as long as the zero row.
NEAR_ZEROS = ["0", "0.00", "-0.0", "+0.0", "-0.", "0e0", "0.", "1.0"]
VALUES = st.one_of(
    st.sampled_from(["0.0", "-0.0", "1e300", "-1e300", "1e-300", "-1e-300", "5e-324",
                     "-2.5e-310", "2.2250738585072014e-308"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


# Ways to spoil the writer's zero tail after a row's values: a doubled
# space, another zero inside it, or one token too few or too many.
TAIL_MISSES = ["", "", "double space", "0.00", "-0.0", "short", "long"]


@st.composite
def cheb_texts(draw):
    """A .cheb text at degree 0-20 whose rows mix the writer's zero row and
    zero tail with near misses."""
    n = draw(st.integers(0, 20))
    lines = []
    for _ in range(draw(st.sampled_from([n + 1, n + 1, n + 1, n, n + 2]))):
        kind = draw(st.sampled_from(["zero", "zero", "near", "values", "count", "tail", "tail"]))
        tokens = ["0.0"] * (n + 1)
        if kind == "near":
            tokens[draw(st.integers(0, n))] = draw(st.sampled_from(NEAR_ZEROS))
        elif kind == "values":
            tokens = draw(st.lists(VALUES, min_size=n + 1, max_size=n + 1))
        elif kind == "count":
            tokens = draw(st.lists(VALUES, min_size=n, max_size=n + 2).filter(
                lambda t: len(t) != n + 1))
        elif kind == "tail":
            tokens = draw(st.lists(VALUES, max_size=n + 1))
            miss = draw(st.sampled_from(TAIL_MISSES))
            tail = ["0.0"] * (n + 1 - len(tokens) + {"short": -1, "long": 1}.get(miss, 0))
            if tail and miss in ("double space", "0.00", "-0.0"):
                spoilt = " 0.0" if miss == "double space" else miss
                tail[draw(st.integers(0, len(tail) - 1))] = spoilt
            tokens += tail
        sep = " " if kind in ("zero", "tail") else draw(st.sampled_from([" ", " ", "  "]))
        trail = "" if kind in ("zero", "tail") else draw(st.sampled_from(["", "", " "]))
        end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
        lines.append(sep.join(tokens) + trail + end)
    text = f"cheb2d {n}\n" + "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


def read(reader, path):
    try:
        d = reader(path)
    except ValueError as exc:
        return str(exc)
    return d.degree, d.coeffs.tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=cheb_texts())
@example(text="cheb2d 2\n0.0 0.0 0.0\n-0. 0.0 0.0\n0.0 0.0 0.0")
@example(text="cheb2d 1\n0.25 0.0\r\n0.0  0.0\n")
# a line as long as the writer's zero row that is not it
@example(text="cheb2d 2\n0.0 1.0 0.0\n0.0 0.0 0.0\n0.0 0.0 0.0\n")
# a value head and the writer's zero tail, after values ending in 0 and "."
@example(text="cheb2d 3\n0.25 -1.5 0.0 0.0\n100.0 1e+100 0.0 0.0\n1000.0 0.0 0.0 0.0\n"
              "0.0 0.0 0.0 0.0\n")
# the tail with a doubled space, and with 0.00 or -0.0 inside it
@example(text="cheb2d 3\n0.25 1.5  0.0 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n")
@example(text="cheb2d 3\n0.25 1.5 0.00 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n")
@example(text="cheb2d 3\n0.25 1.5 0.0 -0.0\n0.5 0.0 -0.0 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n")
# the tail ended by "\r\n", or by no newline at the end of the file
@example(text="cheb2d 2\n0.25 1.5 0.0\r\n0.5 0.0 0.0\r\n0.0 0.0 0.0\r\n")
@example(text="cheb2d 2\n0.25 0.0 0.0\n0.0 0.0 0.0\n0.5 0.0 0.0")
# the tail one token short, and one token long
@example(text="cheb2d 3\n0.25 1.5 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n")
@example(text="cheb2d 3\n0.25 1.5 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n")
def test_reader_reads_the_old_values(tmp_path, text):
    # Values are compared as bytes, so a -0.0 read as +0.0 fails.
    path = tmp_path / "rows.cheb"
    path.write_bytes(text.encode())
    assert read(cf.load_coeffs, path) == read(text_oracle.load_coeffs, path)


def test_a_huge_header_fails_at_a_short_row_in_little_memory(tmp_path):
    # A zero row of 10^7 coefficients is 40 MB of text and 80 MB of list;
    # neither may be built before a row of that length is read.
    path = tmp_path / "huge.cheb"
    path.write_text("cheb2d 10000000\n1 2 3\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            cf.load_coeffs(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: row 1 holds 3 coefficients, expected 10000001"
    assert peak < 4 * 2**20
