import re
import warnings

import numpy as np
import pytest

from dsmfuse import chebfusion as cf
from dsmfuse import cli
from dsmfuse import ordered as od
from dsmfuse import prebool as pb

import demo_closed_form as dcf
import hyperpower_oracle
from test_quotient_oracle import CASES

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


HYPERPOWER_CASES = {
    **{name: (n, gamma, ()) for name, (n, gamma) in CASES.items()},
    "order-n5": (5, od.order_constraints(5), ("--max-atoms", "5")),
}


@pytest.mark.parametrize("n, gamma, guard", HYPERPOWER_CASES.values(), ids=HYPERPOWER_CASES.keys())
def test_hyperpower_lists_class_representatives(tmp_path, capsys, n, gamma, guard):
    # The listing is the first member, in prop_key order, of each group of
    # free elements whose tables agree outside the constraints' mask.
    path = tmp_path / "gamma.txt"
    path.write_text("".join(
        f"{pb.format_proposition(p)} = {pb.format_proposition(q)}\n" for p, q in gamma.pairs
    ))
    mask = 0
    for p, q in gamma.pairs:
        mask |= p.table ^ q.table
    reps = {}
    for p in hyperpower_oracle.enumerate_hyperpower(n):
        reps.setdefault(p.table & ~mask, p)
    expected = "".join(f"{pb.format_proposition(p)}\n" for p in reps.values())
    code, out, err = run(capsys, "hyperpower", "-n", str(n), *guard, "-c", str(path))
    assert (code, err) == (0, "")
    assert out == expected + f"count: {len(reps)}\n"


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


def test_hyperpower_constraints_not_utf8(tmp_path, capsys):
    path = tmp_path / "gamma.txt"
    path.write_bytes(b"\xffa0 = a1\n")
    code, out, err = run(capsys, "hyperpower", "-n", "3", "-c", str(path))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 8.00 TiB", "error: Unable to allocate 8.00 TiB\n"),
    ("", "error: MemoryError\n"),
])
def test_allocation_failure_exits_numeric(tmp_path, monkeypatch, capsys, message, line):
    # --degree 1048576 passes the parser and asks numpy for an 8 TiB sample.
    # Whether that allocation fails depends on the host, so fit fails here.
    def fit(f, degree):
        raise MemoryError(message)

    monkeypatch.setattr(cf, "fit", fit)
    code, out, err = run(capsys, "fuse-demo", "--degree", "1048576", "--out", str(tmp_path))
    assert (code, out, err) == (cli.EXIT_NUMERIC, "", line)


def test_fuse_demo_unwritable_out(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "fuse-demo", "--degree", "8", "--out", str(blocker / "x"))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fuse_command_unwritable_out(tmp_path, capsys):
    a = tmp_path / "a.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(-1, 0), 8)), a)
    out_path = tmp_path / "missing" / "f.cheb"
    code, out, err = run(capsys, "fuse", str(a), str(a), "--out", str(out_path))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and str(out_path) in err and err.count("\n") == 1


def test_usage_error(capsys):
    assert run(capsys, "hyperpower")[0] == cli.EXIT_USAGE
    assert run(capsys, "no-such-command")[0] == cli.EXIT_USAGE


def test_ordered_report(capsys):
    for n, count in ((3, 13), (4, 41)):
        code, out, _ = run(capsys, "ordered", "-n", str(n))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [f"classes: {count}", f"staircases: {count}", "PASS"]


def test_ordered_report_at_n5(capsys):
    code, out, _ = run(capsys, "ordered", "-n", "5", "--max-atoms", "5")
    assert code == 0
    assert out.splitlines() == ["classes: 131", "staircases: 131", "PASS"]


def test_ordered_report_at_n12(capsys):
    code, out, err = run(capsys, "ordered", "-n", "12", "--max-atoms", "12")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["classes: 742899", "staircases: 742899", "PASS"]


# Catalan(k + 1) - 1 for k = 1..12 atoms.
ORDERED_COUNTS = [1, 4, 13, 41, 131, 428, 1429, 4861, 16795, 58785, 208011, 742899]


@pytest.mark.parametrize("k, count", enumerate(ORDERED_COUNTS, start=1))
def test_ordered_golden_output(k, count, capsys):
    code, out, err = run(capsys, "ordered", "-n", str(k), "--max-atoms", "12")
    assert (code, err) == (0, "")
    assert out == f"classes: {count}\nstaircases: {count}\nPASS\n"


def test_ordered_fail_path(monkeypatch, capsys):
    # Without a0 & a1 & a2 = a0 & a2 the atom set {a0, a2} survives the
    # congruence although it is no interval.
    true_order = od.order_constraints

    def without_012(n):
        lost = (pb.varphi(n, [{0, 1, 2}]), pb.varphi(n, [{0, 2}]))
        return pb.ConstraintSet(tuple(p for p in true_order(n).pairs if p != lost))

    monkeypatch.setattr(od, "order_constraints", without_012)
    code, out, _ = run(capsys, "ordered", "-n", "3")
    lines = out.splitlines()
    assert code == cli.EXIT_NUMERIC
    assert lines[:2] == ["classes: 18", "staircases: 13"]
    assert lines[2:-1] == ["counterexample: atom set {a0, a2} is kept by the order constraints"]
    assert lines[-1] == "FAIL"


def test_ordered_needs_an_atom(capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, "ordered", "-n", n)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.endswith(f"dsmfuse ordered: error: argument -n: need at least one atom, got {n}\n")


@pytest.mark.parametrize("argv, message", [
    (["hyperpower", "-n", "0"], "argument -n: need at least one atom, got 0"),
    (["ordered", "-n", "0"], "argument -n: need at least one atom, got 0"),
    (["ordered", "-n", "-1"], "argument -n: need at least one atom, got -1"),
    (["fuse-demo", "--degree", "7"], "argument --degree: degree must be a power of two >= 2, got 7"),
    (["fuse-demo", "--grid", "1"], "argument --grid: grid size must be >= 2, got 1"),
    (["hyperpower", "-n", "abc"], "argument -n: expected an integer, got 'abc'"),
    (["hyperpower", "-n", "3", "--max-atoms", "-1"],
     "argument --max-atoms: atom guard must be >= 1, got -1"),
    (["ordered", "-n", "3", "--max-atoms", "0"],
     "argument --max-atoms: atom guard must be >= 1, got 0"),
    (["fuse-demo", "--gauss1", "nan,0"], "argument --gauss1: centre must be finite, got 'nan,0'"),
    (["fuse-demo", "--gauss2", "0,-inf"], "argument --gauss2: centre must be finite, got '0,-inf'"),
])
def test_bad_option_value_is_a_usage_error(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "demo"
    extra = ["--out", str(out_dir)] if argv[0] == "fuse-demo" else []
    code, out, err = run(capsys, *argv, *extra)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"dsmfuse {argv[0]}: error: {message}"
    ]
    assert not out_dir.exists()


def test_atom_guard_is_a_usage_error(capsys):
    code, out, err = run(capsys, "hyperpower", "-n", "7")
    assert (code, out, err) == (
        cli.EXIT_USAGE, "", "error: n=7 exceeds the enumeration guard (4)\n"
    )
    code, out, err = run(capsys, "ordered", "-n", "5")
    assert (code, out, err) == (
        cli.EXIT_USAGE, "", "error: n=5 exceeds the verification guard (4)\n"
    )


def test_atom_guard_is_checked_before_the_constraints_are_parsed(tmp_path, capsys):
    # Parsing at n = 7 would first build the up-set tables of 2^7 atom sets.
    path = tmp_path / "gamma.txt"
    path.write_text("a0 = \n")
    code, out, err = run(capsys, "hyperpower", "-n", "7", "-c", str(path))
    assert (code, out, err) == (
        cli.EXIT_USAGE, "", "error: n=7 exceeds the enumeration guard (4)\n"
    )


def test_belief_endpoint_off_the_square_is_a_usage_error(tmp_path, capsys):
    # The interval is built before the file is read, so a missing file does
    # not hide a bad endpoint.
    path = tmp_path / "m.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(-1, 0), 16)), path)
    for bba in (path, tmp_path / "missing.cheb"):
        for lo, hi in (("2", "0"), ("nan", "0"), ("0", "inf")):
            assert run(capsys, "belief", str(bba), "--", lo, hi) == (
                cli.EXIT_USAGE, "", "error: interval endpoints must lie in [-1, 1]\n"
            )


@pytest.mark.parametrize("option", ["--gauss1", "--gauss2"])
@pytest.mark.parametrize("value", ["abc", "1,2,3"])
def test_fuse_demo_malformed_center(tmp_path, capsys, option, value):
    out_dir = tmp_path / "demo"
    code, out, err = run(capsys, "fuse-demo", "--out", str(out_dir), option, value)
    assert code == cli.EXIT_USAGE
    assert out == "" and "Traceback" not in err
    assert f"argument {option}: expected 'cx,cy', got {value!r}" in err
    assert not out_dir.exists()


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


def test_fuse_command_accepts_mismatched_degrees(tmp_path, capsys):
    a = tmp_path / "a.cheb"
    b = tmp_path / "b.cheb"
    out = tmp_path / "f.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(-1, 0), 32)), a)
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(0, 1), 16)), b)
    code, _, err = run(capsys, "fuse", str(a), str(b), "--out", str(out))
    assert code == 0, err
    fused = cf.load_coeffs(out)
    assert fused.degree == 32
    assert np.array_equal(fused.coeffs, cf.fuse(cf.load_coeffs(a), cf.load_coeffs(b)).coeffs)


def test_belief_command_whole_domain(tmp_path, capsys):
    path = tmp_path / "m.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(-1, 0), 64)), path)
    code, out, _ = run(capsys, "belief", str(path), "--", "-1", "1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_belief_command_computes_the_library_belief(tmp_path, capsys, monkeypatch):
    # The value cmd_belief formats, from chebseries's plain-Python form, is
    # the library's belief to 1e-15 on the demo's normalized files.
    from dsmfuse import chebseries

    demo = tmp_path / "demo"
    assert run(capsys, "fuse-demo", "--grid", "2", "--out", str(demo))[0] == 0
    computed = []
    form = chebseries.belief
    monkeypatch.setattr(chebseries, "belief", lambda *a: computed.append(form(*a)) or computed[-1])
    rng = np.random.default_rng(31)
    points = [(-1.0, 1.0), (1.0, -1.0)] + rng.uniform(-1, 1, (20, 2)).tolist()
    for name in ("m1", "m2", "m1+m2"):
        density = cf.load_coeffs(demo / f"{name}.cheb")
        for lo, hi in points:
            code, out, err = run(capsys, "belief", str(demo / f"{name}.cheb"), "--", repr(lo), repr(hi))
            assert (code, err) == (0, "")
            direct = cf.belief(density, cf.GeneralizedInterval(lo, hi))
            assert abs(computed[-1] - direct) <= 1e-15, (name, lo, hi)
            assert out == f"{computed[-1]:.12g}\n"


def test_belief_command_integrates_a_wide_density_exactly(tmp_path, capsys):
    # This density is 0.25 + 1e300 (x + y): it integrates to exactly 1 but
    # is -2e300 at (-1, -1).  Its belief of the whole square is that
    # integral, which evaluating a belief surface loses to cancellation.
    path = tmp_path / "wide.cheb"
    path.write_text("cheb2d 1\n0.25 1e300\n1e300 0\n")
    assert run(capsys, "belief", str(path), "--", "-1", "1") == (0, "1\n", "")


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


def test_hyperpower_rejects_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text("(" * 5000 + "a0" + ")" * 5000 + " = a1\n")
    code, out, err = run(capsys, "hyperpower", "-n", "2", "-c", str(path))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert str(path) in err and "nested" in err


@pytest.mark.parametrize("text, message", [
    # Headers promising far more rows than the file holds must fail at the
    # first short row instead of reading on.
    ("cheb2d 2000000\n1 2 3\n", "row 1 holds 3 coefficients, expected 2000001"),
    ("cheb2d 1\n0.25 0\n", "row 2 holds 0 coefficients, expected 2"),
    ("cheb2d 1\n0.25 0\n0 1 2\n", "row 2 holds 3 coefficients, expected 2"),
    # Errors that Python raises, not the reader, name the file too.
    ("cheb2d 1\n0.25 abc\n", "could not convert string to float: 'abc'"),
    # The codec's text depends on the locale's encoding.
    (b"cheb2d 1\n\xff\n", ""),
])
def test_belief_command_stops_at_first_bad_row(tmp_path, capsys, text, message):
    path = tmp_path / "short.cheb"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    code, out, err = run(capsys, "belief", str(path), "0", "0")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("tail", ["concatenated", "garbage"])
def test_text_after_the_last_row_is_rejected(tmp_path, capsys, tail):
    one, two = tmp_path / "one.cheb", tmp_path / "two.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(0, 1), 16)), one)
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(0.3, 0.5), 16)), two)
    path = tmp_path / "both.cheb"
    path.write_text(one.read_text() + (two.read_text() if tail == "concatenated" else "\n x\n"))
    for argv in (["belief", str(path), "--", "-0.2", "0.7"],
                 ["fuse", str(path), str(two), "--out", str(tmp_path / "f.cheb")]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (cli.EXIT_PARSE, "", f"error: {path}: text after row 17\n")


def test_blank_lines_after_the_last_row_are_accepted(tmp_path, capsys):
    path = tmp_path / "d.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(0, 1), 16)), path)
    code, out, _ = run(capsys, "belief", str(path), "--", "-0.2", "0.7")
    path.write_text(path.read_text() + "\n  \n\t\n")
    assert run(capsys, "belief", str(path), "--", "-0.2", "0.7") == (code, out, "")
    assert code == 0


def test_fuse_command_names_the_bad_file(tmp_path, capsys):
    good = tmp_path / "good.cheb"
    cf.save_coeffs(cf.normalize(cf.fit(cf.gaussian(0, 1), 16)), good)
    bad = tmp_path / "bad.cheb"
    bad.write_text("cheb2d 1\n0.25 abc\n0 0\n")
    out_path = tmp_path / "f.cheb"
    code, out, err = run(capsys, "fuse", str(good), str(bad), "--out", str(out_path))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == f"error: {bad}: could not convert string to float: 'abc'\n"
    assert not out_path.exists()


# Integrates to nan through overflow: w @ c overflows to +-inf, and inf - inf
# is nan.  A NaN integral must fail the normalization check, which let it
# through as a belief of -7.25333333333e+307 with exit 0.
NAN_INTEGRAL_CHEB = (
    "cheb2d 4\n"
    "0.0 8.5e+307 1.0 0.0 0.0\n"
    "0.0 8.5e+307 0.0 -1.7e+308 0.0\n"
    "1.0 0.0 -1.7e+308 0.0 1e+308\n"
    "0.0 1e+307 1e+308 0.0 0.0\n"
    "0.0 -1.7e+308 -1e+308 8.5e+307 1.7e+308\n"
)
UNIFORM_CHEB = "cheb2d 2\n0.25 0 0\n0 0 0\n0 0 0\n"
NOT_NORMALIZED_NAN = "error: density is not normalized (integral nan)\n"


@pytest.mark.parametrize("files, argv, line", [
    ({}, ["fuse-demo", "--gauss1", "0,1e300", "--out", "{tmp}/demo"],
     "error: cannot normalize: total mass 0.0 <= 0\n"),
    ({"big": "cheb2d 1\n1e308 1e308\n1e308 1e308\n"},
     ["fuse", "{tmp}/big", "{tmp}/big", "--out", "{tmp}/f.cheb"], NOT_NORMALIZED_NAN),
    ({"big": "cheb2d 1\n1e308 1e308\n1e308 1e308\n"},
     ["belief", "{tmp}/big", "--", "-1", "1"], NOT_NORMALIZED_NAN),
    ({"off": "cheb2d 1\n0.25 1e300\n1e300 0\n"},
     ["fuse", "{tmp}/off", "{tmp}/off", "--out", "{tmp}/f.cheb"],
     "error: coefficients must be finite\n"),
    ({"nan": NAN_INTEGRAL_CHEB}, ["belief", "{tmp}/nan", "--", "-1", "1"], NOT_NORMALIZED_NAN),
    ({"nan": NAN_INTEGRAL_CHEB, "uniform": UNIFORM_CHEB},
     ["fuse", "{tmp}/uniform", "{tmp}/nan", "--out", "{tmp}/f.cheb"], NOT_NORMALIZED_NAN),
], ids=["demo-huge-centre", "fuse-1e308", "belief-1e308", "fuse-1e300-off-diagonal",
        "belief-nan-integral", "fuse-nan-integral"])
def test_overflow_ends_in_one_error_line_and_no_warning(tmp_path, capsys, files, argv, line):
    # Each run overflows, or meets inf - inf, inside numpy on its way to the
    # check that rejects it; numpy must not warn about it first.
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert [str(w.message) for w in caught] == []
    assert result == (cli.EXIT_NUMERIC, "", line)
    assert not (tmp_path / "f.cheb").exists() and not (tmp_path / "demo").exists()
