"""``cli.main`` builds only the named subcommand's parser.

Differential test against ``cli_oracle.main``, which parses every argv with
the full tree of ``cli.build_parser``: exit code, stdout and stderr must be
equal on help requests, unknown commands, left-over arguments, abbreviated
and attached options, ``--`` and bad values.  Help text wraps to the
terminal width, so ``COLUMNS`` is fixed.  Also: dispatch reads the ``cmd_*``
functions when it runs, so one replaced on the module is the one called,
and ``python -m dsmfuse.cli`` reads its arguments from ``sys.argv``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dsmfuse import cli

import cli_oracle

SRC = Path(__file__).resolve().parent.parent / "src"
UNIFORM_CHEB = "cheb2d 2\n0.25 0 0\n0 0 0\n0 0 0\n"
README_PAIR = "a0 & a1 = a0 & a2\na0 & a2 = a1 & a2\n"

ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["-hn", "3"],
    ["--he"],
    ["--version"],
    ["-x", "hyperpower"],
    ["no-such-command"],
    ["hyperpowe", "-n", "3"],
    ["hyperpower", "-h"],
    ["ordered", "--help"],
    ["fuse-demo", "-h"],
    ["fuse", "-h"],
    ["belief", "-h"],
    ["hyperpower", "-hn", "3"],
    ["hyperpower", "--help", "-n", "abc"],
    ["hyperpower", "-n", "2"],
    ["hyperpower", "-n3"],
    ["hyperpower", "-n=3", "--max-at", "4"],
    ["hyperpower", "-n", "2", "--max-at", "1"],
    ["hyperpower", "-n", "3", "-c", "{tmp}/pair.txt"],
    ["hyperpower", "-n", "2", "-c", "{tmp}/missing.txt"],
    ["hyperpower", "-n", "2", "-c"],
    ["hyperpower"],
    ["hyperpower", "-n", "abc"],
    ["hyperpower", "-n", "0"],
    ["hyperpower", "-n", "7"],
    ["hyperpower", "-n", "3", "extra"],
    ["hyperpower", "--", "-n", "3"],
    ["hyperpower", "-n", "2", "--bogus", "1", "more"],
    ["ordered", "-n", "3"],
    ["ordered", "-n", "2", "-n", "3"],
    ["ordered", "--n", "3"],
    ["ordered", "-n"],
    ["ordered", "-n", "-1"],
    ["ordered", "-n", "3", "--max-atoms", "0"],
    ["fuse-demo", "--degree", "7"],
    ["fuse-demo", "--gauss1", "nan,0"],
    ["fuse-demo", "--gauss2", "1,2,3"],
    ["fuse-demo", "--g", "3"],
    ["fuse-demo", "--out"],
    ["fuse"],
    ["fuse", "{tmp}/uniform.cheb", "{tmp}/uniform.cheb"],
    ["fuse", "{tmp}/uniform.cheb", "{tmp}/uniform.cheb", "--out", "{tmp}/fused.cheb"],
    ["fuse", "{tmp}/uniform.cheb", "{tmp}/missing.cheb", "--out", "{tmp}/fused.cheb"],
    ["belief", "{tmp}/uniform.cheb"],
    ["belief", "{tmp}/uniform.cheb", "--", "-0.5", "0.5"],
    ["belief", "{tmp}/uniform.cheb", "-0.5", "0.5"],
    ["belief", "{tmp}/uniform.cheb", "0", "0.5", "0.7"],
    ["belief", "{tmp}/uniform.cheb", "0", "2"],
    ["belief", "--", "-h", "0", "1"],
    ["belief", "{tmp}/uniform.cheb", "0", "x"],
]


@pytest.fixture
def files(tmp_path):
    (tmp_path / "uniform.cheb").write_text(UNIFORM_CHEB)
    (tmp_path / "pair.txt").write_text(README_PAIR)
    return tmp_path


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) or "(none)" for a in ARGVS])
def test_main_matches_the_full_tree(files, monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [a.format(tmp=files) for a in argv]
    results = []
    for main in (cli.main, cli_oracle.main):
        code = main(list(argv))
        out, err = capsys.readouterr()
        results.append((code, out, err))
    assert results[0] == results[1]


def test_dispatch_reads_cmd_functions_at_call_time(monkeypatch, capsys):
    calls = []

    def cmd_ordered(args):
        calls.append(args.n)
        return 0

    monkeypatch.setattr(cli, "cmd_ordered", cmd_ordered)
    assert cli.main(["ordered", "-n", "3"]) == 0
    assert calls == [3]
    assert capsys.readouterr().out == ""


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "dsmfuse.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
        capture_output=True,
        text=True,
    )


def test_module_reads_sys_argv():
    result = run_module("hyperpower", "-n", "2")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith("count: 6\n")


def test_module_without_arguments_prints_usage():
    result = run_module()
    assert (result.returncode, result.stdout) == (cli.EXIT_USAGE, "")
    assert result.stderr.startswith("usage: dsmfuse [-h]")
    assert result.stderr.endswith(
        "dsmfuse: error: the following arguments are required: command\n"
    )


def test_top_level_help_leaves_out_the_dispatch_note(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(["-h"]) == 0
    out = capsys.readouterr().out
    assert "through :mod:`dsmfuse.chebfusion`.\n\npositional arguments:" in out
    assert "Dispatch" not in out
