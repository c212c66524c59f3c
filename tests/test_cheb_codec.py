"""``chebseries.write_block`` against the per-value rule of the ``.cheb`` text,
and ``read_block`` on what it writes, with plain lists and no numpy.

The rule is the one of ``text_oracle.save_coeffs``: the header ``cheb2d N``,
then every row, padded with +0.0 to N+1 rows of N+1 entries, as its entries'
``repr``s joined by single spaces and ended by ``"\\n"``.  Reading the file
back gives the degree and the input's leading block, bit for bit.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dsmfuse.chebseries import read_block, write_block


def per_value_text(degree, rows):
    padded = [row + [0.0] * (degree + 1 - len(row)) for row in rows]
    padded += [[0.0] * (degree + 1)] * (degree + 1 - len(rows))
    return f"cheb2d {degree}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in padded)


def is_plus_zero(v):
    return v == 0 and math.copysign(1, v) > 0


def leading_block(rows):
    """The smallest square, at least 1 x 1, past which every entry is +0.0."""
    size = max(
        (max(k, l) + 1 for k, row in enumerate(rows) for l, v in enumerate(row)
         if not is_plus_zero(v)),
        default=1,
    )
    return [row[:size] for row in rows[:size]]


def bits(rows):
    return [[v.hex() for v in row] for row in rows]


def check_round_trip(path, degree, rows):
    write_block(path, degree, rows)
    assert path.read_text() == per_value_text(degree, rows)
    n, back = read_block(path)
    assert n == degree
    assert bits(back) == bits(leading_block(rows))


@pytest.mark.parametrize(
    "degree, rows",
    [
        pytest.param(0, [[0.25]], id="degree-0"),
        pytest.param(0, [[-0.0]], id="degree-0-negative-zero"),
        pytest.param(2, [[0.25, 1.5, -2.0], [0.5, 0.0, 3.0], [1e-3, 7.0, 0.125]],
                     id="block-as-large-as-the-degree"),
        pytest.param(3, [[0.25, 0.0], [0.0, -0.0]], id="negative-zero-last"),
        pytest.param(4, [[0.25, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -0.0]],
                     id="negative-zero-last-of-three"),
        pytest.param(5, [[0.0]], id="all-zero"),
        pytest.param(0, [[0.0]], id="all-zero-degree-0"),
        pytest.param(3, [[1e300, -1e300, 1e-300], [-1e-300, 5e-324, -5e-324],
                         [0.0, 2.5, 5e-324]], id="extremes"),
    ],
)
def test_block_round_trips(tmp_path, degree, rows):
    check_round_trip(tmp_path / "block.cheb", degree, rows)


ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def blocks(draw):
    """A degree up to 40 and a square of up to degree+1 rows.

    The entries come from a short drawn pool, so a block of 41 x 41 fits in
    hypothesis's buffer; past a drawn corner every entry is +0.0, so the
    leading block read back is often smaller than the square written.
    """
    degree = draw(st.integers(0, 40))
    size = draw(st.integers(1, degree + 1))
    used = draw(st.integers(0, size))
    pool = draw(st.lists(ENTRIES, min_size=1, max_size=12))
    rnd = draw(st.randoms(use_true_random=False))
    return degree, [
        [rnd.choice(pool) if max(k, l) < used else 0.0 for l in range(size)]
        for k in range(size)
    ]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=blocks())
def test_drawn_blocks_round_trip(tmp_path, block):
    check_round_trip(tmp_path / "drawn.cheb", *block)
