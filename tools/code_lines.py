"""Count the code lines of each ``src/dsmfuse`` module and of all of them.

A code line is a physical line that is not blank, not a comment alone and
not part of a docstring (the string that opens a module, class or
function).  Run it from anywhere, with the standard library alone:

    python3 tools/code_lines.py
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dsmfuse"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that a docstring of the module, a class or a function spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    return sum(
        1 for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main() -> int:
    counts = {path.stem: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
