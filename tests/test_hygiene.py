"""Every name a ``src/dsmfuse`` module imports, and every private name it
defines at module level, is used in that module; no module reads another's
private names; every error text it raises is asserted somewhere under
``tests/``; and every ``tests/*_oracle.py`` module is imported by some
``tests/test_*.py``."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dsmfuse"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_names(tree):
    # single-underscore names bound by the module's top-level statements
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from filter(is_private, names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted(set(private_names(tree)) - loaded)
    assert not unused, f"{path.name} defines {unused} without using them"


def foreign_private_reads(tree):
    # single-underscore names read from another dsmfuse module: imported by
    # name, or read as an attribute of a name bound to the module
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {
        alias.asname or alias.name for node in imports for alias in node.names
        if (node.level, node.module) in ((1, None), (0, "dsmfuse"))
    }
    for node in imports:
        if node.module and (node.level or node.module.startswith("dsmfuse.")):
            for alias in node.names:
                if is_private(alias.name):
                    yield node.lineno, f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            yield node.lineno, f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(set(foreign_private_reads(tree)))
    assert not reads, f"{path.name} reads private names of other modules: {reads}"


def error_texts(tree):
    # the longest constant part of each E("...") or E(f"...") that is raised
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            parts = [message.value]
        elif isinstance(message, ast.JoinedStr):
            parts = [v.value for v in message.values if isinstance(v, ast.Constant)]
        else:
            continue
        longest = max((part.strip() for part in parts), key=len, default="")
        if len(longest) >= 8:
            yield node.lineno, longest


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_error_text_is_asserted(path):
    tests = "".join(test.read_text() for test in TESTS.glob("*.py"))
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = [f"{line}: {text!r}" for line, text in error_texts(tree) if text not in tests]
    assert not missing, f"{path.name} raises texts that no test names: {missing}"


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_every_oracle_is_imported_by_a_test():
    oracles = {p.stem for p in TESTS.glob("*_oracle.py") if not p.name.startswith("test_")}
    assert oracles
    imported = set()
    for test in TESTS.glob("test_*.py"):
        imported.update(imported_modules(ast.parse(test.read_text(), filename=str(test))))
    unwired = sorted(oracles - imported)
    assert not unwired, f"no test imports the oracles {unwired}"
