"""A write to stdout that fails ends in one error line and exit 1.

A process whose reader has gone, or whose stdout is a full device, prints
``error: <reason>`` on stderr and nothing else: no traceback, and no
``Exception ignored`` from the interpreter's last flush.  Each case runs
in a fresh interpreter, since the failure must reach the real descriptor.
Small outputs are still in the buffer when the command returns, so they
fail at the flush in ``main``; large ones fail inside the command.  Help
text fails the same way, although argparse ignores a failed write.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dsmfuse import cli

SRC = Path(__file__).resolve().parent.parent / "src"
SMALL = ["ordered", "-n", "3"]
LARGE = ["hyperpower", "-n", "5", "--max-atoms", "5"]


def run_into(stdout, argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dsmfuse.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("argv", [SMALL, LARGE], ids=["at-flush", "in-command"])
def test_closed_pipe_is_one_error_line(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_into(write, argv)
    finally:
        os.close(write)
    assert result.returncode == 1
    assert result.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv", [SMALL, LARGE, ["-h"], ["belief", "-h"]],
    ids=["at-flush", "in-command", "help", "subcommand-help"],
)
def test_full_device_is_one_error_line(argv):
    with open("/dev/full", "w") as full:
        result = run_into(full, argv)
    assert result.returncode == 1
    assert result.stderr == "error: [Errno 28] No space left on device\n"


def test_stringio_stdout_keeps_an_escaping_oserror(monkeypatch):
    # A StringIO never fails a write, so an OSError is not a stdout failure.
    def cmd_ordered(args):
        raise OSError("not from stdout")

    monkeypatch.setattr(cli, "cmd_ordered", cmd_ordered)
    with redirect_stdout(io.StringIO()), pytest.raises(OSError, match="not from stdout"):
        cli.main(SMALL)
