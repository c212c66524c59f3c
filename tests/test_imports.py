"""Each entry point loads only the libraries and modules it runs.

The finite engine and its subcommands are pure Python: importing the package
or running ``hyperpower`` or ``ordered`` must not load numpy or scipy.  The
spectral subcommands ``fuse`` and ``fuse-demo`` need numpy alone, and
``belief`` loads neither numpy nor ``chebfusion``; none of them loads
``prebool`` or ``ordered``.  Nor does writing and reading a ``.cheb`` file
through ``chebseries`` load numpy or ``chebfusion``.  Importing
``dsmfuse.cli`` loads no engine, and no entry point loads ``dataclasses``.
Every case runs in a fresh interpreter, since this test process has loaded
all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
README_PAIR = "a0 & a1 = a0 & a2\na0 & a2 = a1 & a2\n"
# the constant density 1/4 on [-1, 1]^2, normalized
UNIFORM_CHEB = "cheb2d 2\n0.25 0 0\n0 0 0\n0 0 0\n"


def modules_after(code: str) -> tuple[set[str], str]:
    """Every module loaded after ``code`` runs, and the stdout it printed."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = result.stdout.splitlines()
    return set(json.loads(lines[-1])), "\n".join(lines[:-1])


def heavy_modules_after(code: str) -> tuple[set[str], str]:
    """Top-level numpy/scipy packages loaded by ``code``, and its stdout."""
    loaded, out = modules_after(code)
    return {m.split(".")[0] for m in loaded} & {"numpy", "scipy"}, out


def engine_modules_after(code: str) -> tuple[set[str], str]:
    """The ``dsmfuse`` submodules and ``dataclasses``, if ``code`` loads them."""
    loaded, out = modules_after(code)
    return {m for m in loaded if m.startswith("dsmfuse.") or m == "dataclasses"}, out


def cli_code(argv: list[str]) -> str:
    return f"from dsmfuse import cli\nprint('exit', cli.main({argv!r}))"


@pytest.mark.parametrize(
    "code",
    ["import dsmfuse", "import dsmfuse.cli", "from dsmfuse import prebool, belief, ordered"],
)
def test_finite_imports_load_neither_library(code):
    assert heavy_modules_after(code)[0] == set()


def test_finite_subcommands_load_neither_library(tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text(README_PAIR)
    for argv, exit_code in (
        (["hyperpower", "-n", "3"], 0),
        (["hyperpower", "-n", "3", "-c", str(pair)], 0),
        (["ordered", "-n", "3"], 0),
        (["hyperpower", "-n", "0"], 1),
        (["hyperpower", "-n", "7"], 1),
    ):
        loaded, out = heavy_modules_after(cli_code(argv))
        assert out.splitlines()[-1] == f"exit {exit_code}", argv
        assert loaded == set(), argv


def test_belief_subcommand_loads_neither_numpy_nor_chebfusion(tmp_path):
    path = tmp_path / "uniform.cheb"
    path.write_text(UNIFORM_CHEB)
    loaded, out = modules_after(cli_code(["belief", str(path), "--", "-0.5", "0.5"]))
    assert out.splitlines() == ["0.5625", "exit 0"]
    assert not {m.split(".")[0] for m in loaded} & {"numpy", "scipy"}
    assert {m for m in loaded if m.startswith("dsmfuse.")} == {
        "dsmfuse.cli", "dsmfuse.chebseries", "dsmfuse._values"}


def test_cheb_round_trip_loads_neither_numpy_nor_chebfusion(tmp_path):
    path = tmp_path / "block.cheb"
    loaded, out = modules_after(
        "from dsmfuse.chebseries import read_block, write_block\n"
        f"write_block({str(path)!r}, 3, [[0.25, -0.0], [1e-300, 5e-324]])\n"
        f"print(read_block({str(path)!r}))\n"
    )
    assert out == "(3, [[0.25, -0.0], [1e-300, 5e-324]])"
    assert not {m.split(".")[0] for m in loaded} & {"numpy", "scipy"}
    assert "dsmfuse.chebfusion" not in loaded


def test_fuse_subcommands_load_numpy_only(tmp_path):
    path = tmp_path / "uniform.cheb"
    path.write_text(UNIFORM_CHEB)
    fused = tmp_path / "fused.cheb"
    for argv in (
        ["fuse", str(path), str(path), "--out", str(fused)],
        ["fuse-demo", "--degree", "8", "--grid", "2", "--out", str(tmp_path / "demo")],
    ):
        loaded, out = heavy_modules_after(cli_code(argv))
        assert out.splitlines()[-1] == "exit 0", argv
        assert loaded == {"numpy"}, argv


def test_submodules_resolve_on_first_access():
    loaded, out = heavy_modules_after(
        "import dsmfuse\n"
        "print(dsmfuse.chebfusion.fuse.__name__)\n"
        "try:\n"
        "    dsmfuse.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.splitlines() == ["fuse", "module 'dsmfuse' has no attribute 'nope'"]
    assert loaded == {"numpy"}


def test_reader_and_cli_resolve_on_first_access():
    loaded, out = modules_after(
        "import dsmfuse\n"
        "print(dsmfuse.chebseries.belief.__name__, dsmfuse.cli.main.__name__)\n"
    )
    assert out == "belief main"
    assert not {m.split(".")[0] for m in loaded} & {"numpy", "scipy"}


def test_star_import_loads_every_submodule():
    _loaded, out = heavy_modules_after(
        "from dsmfuse import *\nprint(sorted(n for n in dir() if not n.startswith('_')))"
    )
    assert out == "['belief', 'chebfusion', 'ordered', 'prebool']"


def test_cli_import_loads_no_engine():
    assert engine_modules_after("import dsmfuse.cli")[0] == {"dsmfuse.cli"}


def test_hyperpower_loads_prebool_alone(tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text(README_PAIR)
    for argv in (["hyperpower", "-n", "3"], ["hyperpower", "-n", "3", "-c", str(pair)]):
        loaded, out = engine_modules_after(cli_code(argv))
        assert out.splitlines()[-1] == "exit 0", argv
        assert loaded == {"dsmfuse.cli", "dsmfuse.prebool", "dsmfuse._values"}, argv


def test_ordered_loads_the_finite_engine_it_runs():
    loaded, out = engine_modules_after(cli_code(["ordered", "-n", "3"]))
    assert out.splitlines()[-1] == "exit 0"
    assert loaded == {"dsmfuse.cli", "dsmfuse.prebool", "dsmfuse.ordered", "dsmfuse._values"}


def test_spectral_subcommands_load_no_finite_engine(tmp_path):
    path = tmp_path / "uniform.cheb"
    path.write_text(UNIFORM_CHEB)
    for argv in (
        ["belief", str(path), "--", "-0.5", "0.5"],
        ["fuse", str(path), str(path), "--out", str(tmp_path / "fused.cheb")],
        ["fuse-demo", "--degree", "8", "--grid", "2", "--out", str(tmp_path / "demo")],
    ):
        loaded, out = engine_modules_after(cli_code(argv))
        assert out.splitlines()[-1] == "exit 0", argv
        assert not loaded & {"dsmfuse.prebool", "dsmfuse.ordered"}, argv


def test_star_import_loads_no_dataclasses():
    loaded, _out = engine_modules_after("from dsmfuse import *")
    assert loaded == {"dsmfuse.belief", "dsmfuse.chebfusion", "dsmfuse.chebseries",
                      "dsmfuse.ordered", "dsmfuse.prebool", "dsmfuse._values"}
