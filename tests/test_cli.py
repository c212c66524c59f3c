import re

import numpy as np
import pytest

from dsmfuse import chebfusion as cf
from dsmfuse import cli

import demo_closed_form as dcf

EXAMPLE3_CONSTRAINTS = "a0 & a1 = a0 & a2\na0 & a2 = a1 & a2\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hyperpower_free_two_atoms(capsys):
    code, out, _ = run(capsys, "hyperpower", "-n", "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "count: 6"
    assert "bot" in lines and "top" in lines
    assert "a0 & a1" in lines and "a0 | a1" in lines


def test_hyperpower_single_atom(capsys):
    code, out, _ = run(capsys, "hyperpower", "-n", "1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 3"


def test_hyperpower_with_constraints(tmp_path, capsys):
    path = tmp_path / "gamma.txt"
    path.write_text(EXAMPLE3_CONSTRAINTS)
    code, out, _ = run(capsys, "hyperpower", "-n", "3", "-c", str(path))
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 10"


def test_hyperpower_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("a0 & = a1\n")
    code, _, err = run(capsys, "hyperpower", "-n", "2", "-c", str(path))
    assert code == cli.EXIT_PARSE
    assert "line 1" in err


def test_hyperpower_missing_file(capsys):
    code, _, err = run(capsys, "hyperpower", "-n", "2", "-c", "/nonexistent")
    assert code == cli.EXIT_PARSE
    assert err


def test_usage_error(capsys):
    assert run(capsys, "hyperpower")[0] == cli.EXIT_USAGE
    assert run(capsys, "no-such-command")[0] == cli.EXIT_USAGE


def test_ordered_report(capsys):
    code, out, _ = run(capsys, "ordered", "-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert "classes: 13" in lines
    assert "staircases: 13" in lines
    assert lines[-1] == "PASS"


def test_fuse_demo_writes_surfaces(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    code, out, _ = run(
        capsys, "fuse-demo", "--degree", "32", "--grid", "17",
        "--out", str(out_dir),
    )
    assert code == 0
    for name in ("mm1", "mm2", "m1", "m2", "b1", "b2", "m1+m2", "b1+b2"):
        assert (out_dir / f"{name}.grid").exists()
        assert (out_dir / f"{name}.cheb").exists()
    assert "fused=1.000000" in out
    # the raw surfaces integrate to the closed-form masses
    mm1 = cf.load_coeffs(out_dir / "mm1.cheb")
    assert cf.integral_full(mm1) == pytest.approx(1.31751933945225, abs=1e-10)
    fused = cf.load_coeffs(out_dir / "m1+m2.cheb")
    assert cf.integral_full(fused) == pytest.approx(1.0, abs=1e-6)


def test_fuse_demo_centers_are_configurable(tmp_path, capsys):
    out_dir = tmp_path / "sym"
    code, out, _ = run(
        capsys, "fuse-demo", "--degree", "16", "--grid", "9",
        "--gauss1", "0,0", "--gauss2", "0,0", "--out", str(out_dir),
    )
    assert code == 0
    m1 = cf.load_coeffs(out_dir / "m1.cheb")
    m2 = cf.load_coeffs(out_dir / "m2.cheb")
    assert np.allclose(m1.coeffs, m2.coeffs)


def test_fuse_command_roundtrip(tmp_path, capsys):
    a = tmp_path / "a.cheb"
    b = tmp_path / "b.cheb"
    out = tmp_path / "f.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(-1, 0), 32)), a)
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(0, 1), 32)), b)
    code, outtext, _ = run(capsys, "fuse", str(a), str(b), "--out", str(out))
    assert code == 0
    assert "integral 1.000000" in outtext
    direct = cf.fuse(cf.load_coeffs(a), cf.load_coeffs(b))
    assert np.allclose(cf.load_coeffs(out).coeffs, direct.coeffs)


def test_fuse_command_rejects_mismatched_degrees(tmp_path, capsys):
    a = tmp_path / "a.cheb"
    b = tmp_path / "b.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(-1, 0), 32)), a)
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(0, 1), 16)), b)
    code, _, err = run(capsys, "fuse", str(a), str(b), "--out", str(tmp_path / "f"))
    assert code == cli.EXIT_NUMERIC
    assert err


def test_belief_command_whole_domain(tmp_path, capsys):
    path = tmp_path / "m.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(-1, 0), 64)), path)
    code, out, _ = run(capsys, "belief", str(path), "--", "-1", "1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_belief_command_rejects_unnormalized(tmp_path, capsys):
    path = tmp_path / "raw.cheb"
    cf.save_coeffs(cf.fit(cf.gaussian(-1, 0), 32), path)
    code, _, err = run(capsys, "belief", str(path), "0", "0.5")
    assert code == cli.EXIT_NUMERIC
    assert err


def test_belief_command_bad_file(tmp_path, capsys):
    path = tmp_path / "junk.cheb"
    path.write_text("garbage\n")
    code, _, _ = run(capsys, "belief", str(path), "0", "1")
    assert code == cli.EXIT_PARSE


def test_output_is_deterministic(tmp_path, capsys):
    path = tmp_path / "gamma.txt"
    path.write_text(EXAMPLE3_CONSTRAINTS)
    first = run(capsys, "hyperpower", "-n", "3", "-c", str(path))[1]
    second = run(capsys, "hyperpower", "-n", "3", "-c", str(path))[1]
    assert first == second


def test_fuse_demo_argmax_agrees_with_closed_form(tmp_path, capsys):
    code, out, _ = run(capsys, "fuse-demo", "--grid", "9", "--out", str(tmp_path / "d"))
    assert code == 0
    printed = re.search(r"argmax=\((\S+), (\S+)\)", out).groups()
    assert printed == (f"{dcf.X_STAR:.2f}", f"{-dcf.X_STAR:.2f}")


def nan_coeffs(tmp_path):
    path = tmp_path / "nan.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(-1, 0), 16)), path)
    lines = path.read_text().splitlines()
    first = lines[1].split()
    lines[1] = " ".join(["nan"] + first[1:])
    path.write_text("\n".join(lines) + "\n")
    return path


def test_belief_command_rejects_nan_coefficients(tmp_path, capsys):
    path = nan_coeffs(tmp_path)
    code, out, err = run(capsys, "belief", str(path), "0", "0")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "finite" in err


def test_fuse_command_rejects_nan_coefficients(tmp_path, capsys):
    good = tmp_path / "good.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(0, 1), 16)), good)
    out_path = tmp_path / "f.cheb"
    code, out, err = run(
        capsys, "fuse", str(nan_coeffs(tmp_path)), str(good), "--out", str(out_path)
    )
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "finite" in err
    assert not out_path.exists()
