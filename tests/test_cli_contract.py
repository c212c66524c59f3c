"""The CLI's numeric contract under generated ``.cheb`` files.

``belief`` and ``fuse`` run in-process on files of degree 0-8 whose entries
mix ±1e±300, subnormals, ±0.0 and ordinary floats, and in half of the
files NaN and ±inf too.  Half of the files integrate to exactly 1: their
only nonzero even-even coefficient is c00 = 1/4, and a coefficient with an
odd index adds nothing to the integral, so those files pass the
normalization check whatever their other entries hold.  Every run must end with an exit code 0-3 and no warning.
Exit 0 means an empty stderr and finite printed numbers; any other exit
prints nothing on stdout and, on stderr, one ``error:`` line or argparse's
usage text.  An exception that escapes ``cli.main``, which a process would
print as a traceback, fails the test.

Beliefs are not asserted to lie in [0, 1]: a density that is negative
somewhere prints beliefs outside it, and whether ``belief`` and ``fuse``
accept such a density is still open.
"""

import io
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import chebfusion as cf
from dsmfuse import cli

FINITE = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 0.0, -0.0]
NON_FINITE = [math.nan, math.inf, -math.inf]
ENDPOINTS = st.one_of(st.sampled_from([-1.0, 1.0, -0.0, 5e-324, 1.5, math.nan]), st.floats(-1.0, 1.0))


@st.composite
def cheb_texts(draw):
    degree = draw(st.integers(0, 8))
    size = degree + 1
    special = FINITE + NON_FINITE if draw(st.booleans()) else FINITE
    entries = st.one_of(st.sampled_from(special), st.floats(-2.0, 2.0))
    c = draw(st.lists(entries, min_size=size * size, max_size=size * size))
    rows = [c[i * size:(i + 1) * size] for i in range(size)]
    if draw(st.booleans()):
        for i in range(0, size, 2):
            for j in range(0, size, 2):
                rows[i][j] = 0.0
        rows[0][0] = 0.25
    return f"cheb2d {degree}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in rows)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    return code, out.getvalue(), err.getvalue()


def assert_failure_reported(code, out, err):
    assert code in (cli.EXIT_USAGE, cli.EXIT_PARSE, cli.EXIT_NUMERIC), (code, err)
    assert out == ""
    lines = err.splitlines()
    if err.startswith("usage: "):
        assert code == cli.EXIT_USAGE
        assert re.fullmatch(r"dsmfuse( \S+)?: error: .+", lines[-1]), err
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ") and err.endswith("\n"), err


@settings(max_examples=100, deadline=None)
@given(text=cheb_texts(), lo=ENDPOINTS, hi=ENDPOINTS)
def test_belief_keeps_the_numeric_contract(workdir, text, lo, hi):
    path = workdir / "d.cheb"
    path.write_text(text)
    code, out, err = run(["belief", str(path), "--", repr(lo), repr(hi)])
    if code == 0:
        assert err == ""
        assert math.isfinite(float(out))
    else:
        assert_failure_reported(code, out, err)


@settings(max_examples=100, deadline=None)
@given(first=cheb_texts(), second=cheb_texts())
def test_fuse_keeps_the_numeric_contract(workdir, first, second):
    a, b, fused = workdir / "a.cheb", workdir / "b.cheb", workdir / "fused.cheb"
    a.write_text(first)
    b.write_text(second)
    fused.unlink(missing_ok=True)
    code, out, err = run(["fuse", str(a), str(b), "--out", str(fused)])
    if code == 0:
        assert err == ""
        integral = re.fullmatch(rf"wrote {re.escape(str(fused))} \(integral (\S+)\)\n", out)
        assert integral and math.isfinite(float(integral[1])), out
        assert all(math.isfinite(v) for v in cf.load_coeffs(fused).coeffs.ravel())
    else:
        assert_failure_reported(code, out, err)
        assert not fused.exists()
