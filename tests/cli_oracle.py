"""The ``cli.main`` that built the full parser tree on every call.

It parses ``argv`` with :func:`dsmfuse.cli.build_parser` and dispatches
through the namespace's ``func`` exactly as ``cli.main`` did before it built
only the named subcommand's parser.  ``cli.main`` must give the same exit
code, stdout and stderr on every argv.
"""

import sys

from dsmfuse import cli


def main(argv: list[str] | None = None) -> int:
    parser = cli.build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except cli.CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return cli.EXIT_NUMERIC
