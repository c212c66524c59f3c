"""Differential test: ``chebfusion.fuse``, which chops its product, against
the unchopped fusion it replaced (``fusion_oracle.fuse_unchopped``), in the
library and through the CLI."""

import re

import numpy as np
import pytest

from dsmfuse import chebfusion as cf
from dsmfuse import chebseries as cs
from dsmfuse import cli

import fusion_oracle

DEMO = ((-1.0, 0.0), (0.0, 1.0))


def density(center, degree):
    return cf.normalize(cf.fit(cf.gaussian(*center), degree))


def fusions(degree):
    """(inputs, chopped fusion, unchopped fusion) for the demo pair, seeded
    pairs and chained triples of Gaussians."""
    rng = np.random.default_rng(3600 + degree)
    groups = [DEMO] + [tuple(tuple(rng.uniform(-1, 1, 2)) for _ in range(k)) for k in (2, 2, 2, 3, 3)]
    for centers in groups:
        ms = [density(c, degree) for c in centers]
        got, want = ms[0], ms[0]
        for m in ms[1:]:
            got, want = cf.fuse(got, m), fusion_oracle.fuse_unchopped(want, m)
        yield centers, got, want


@pytest.mark.parametrize("degree", [64, 128, 512])
def test_chopped_fusion_matches_unchopped_fusion(degree):
    rng = np.random.default_rng(degree)
    for centers, got, want in fusions(degree):
        assert got.degree == want.degree == degree, centers
        # the result is its own chop, and no larger than what it replaced
        size = got._block.shape[0]
        assert cf.chop(got) == size - 1 and size <= want._block.shape[0], centers
        values = cf.grid_samples(got, 257)[1]
        reference = cf.grid_samples(want, 257)[1]
        tol = cf.FIT_RESIDUAL * cf._EPS * np.max(np.abs(reference))
        assert np.max(np.abs(values - reference)) <= tol, centers
        for lo, hi in rng.uniform(-1, 1, (16, 2)):
            iv = cf.GeneralizedInterval(lo, hi)
            assert abs(cf.belief(got, iv) - cf.belief(want, iv)) <= 1e-15, (centers, lo, hi)


@pytest.mark.parametrize("degree", [128, 512])
def test_demo_fusion_keeps_a_29_block_at_its_degree(degree):
    m1, m2 = (density(c, degree) for c in DEMO)
    fused = cf.fuse(m1, m2)
    assert fused.degree == degree and fused._block.shape == (29, 29)
    assert fusion_oracle.fuse_unchopped(m1, m2)._block.shape == (50, 50)


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("degree", [128, 512])
def test_fuse_command_writes_the_chopped_block(tmp_path, capsys, monkeypatch, degree):
    m1, m2 = (density(c, degree) for c in DEMO)
    a, b, out = tmp_path / "m1.cheb", tmp_path / "m2.cheb", tmp_path / "fused.cheb"
    cf.save_coeffs(m1, a)
    cf.save_coeffs(m2, b)
    assert run(capsys, "fuse", a, b, "--out", out)[0] == 0
    # 29 block rows, then write_block's all-zero rows
    lines = out.read_text().splitlines(keepends=True)
    assert lines[0] == f"cheb2d {degree}\n" and len(lines) == degree + 2
    assert all(line != cs._zero_row(degree) for line in lines[1:30])
    assert set(lines[30:]) == {cs._zero_row(degree)}
    assert len(cs.read_block(out)[1]) == 29

    computed = []
    form = cs.belief
    monkeypatch.setattr(cs, "belief", lambda *a: computed.append(form(*a)) or computed[-1])
    want = fusion_oracle.fuse_unchopped(m1, m2)
    rng = np.random.default_rng(degree + 1)
    for lo, hi in [(-1.0, 1.0), (1.0, -1.0)] + rng.uniform(-1, 1, (12, 2)).tolist():
        code, printed, err = run(capsys, "belief", out, "--", repr(lo), repr(hi))
        assert (code, err) == (0, "")
        assert printed == f"{computed[-1]:.12g}\n"
        assert abs(computed[-1] - cf.belief(want, cf.GeneralizedInterval(lo, hi))) <= 1e-15, (lo, hi)


@pytest.mark.parametrize("degree", [128, 512])
def test_fuse_demo_prints_the_unchopped_line(tmp_path, capsys, monkeypatch, degree):
    def demo(out):
        code, printed, err = run(capsys, "fuse-demo", "--degree", degree, "--grid", 2, "--out", out)
        assert (code, err) == (0, "")
        return re.sub(r"elapsed=\S+", "", printed)

    chopped = demo(tmp_path / "chopped")
    monkeypatch.setattr(cf, "fuse", fusion_oracle.fuse_unchopped)
    assert demo(tmp_path / "unchopped") == chopped
