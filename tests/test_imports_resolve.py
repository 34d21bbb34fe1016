"""Every import statement under ``src/repro`` names something that exists.

A function-local import on an untested branch is invisible to the test
suite and to CI's ruff selection (which does not resolve imports), so
this walks the source instead of executing it.  A ``try`` that catches
``ImportError`` gates an optional import and is skipped.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _imports(node: ast.AST):
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node
    elif not (isinstance(node, ast.Try) and "ImportError" in "".join(
            ast.unparse(h.type) for h in node.handlers if h.type)):
        for child in ast.iter_child_nodes(node):
            yield from _imports(child)


def _unresolved(path: Path):
    package = path.relative_to(SRC).parts[:-1]
    for node in _imports(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            wanted = [(alias.name, None) for alias in node.names]
        else:
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join([*base, *([node.module] if node.module else [])])
            wanted = [(module, alias.name) for alias in node.names]
        for module, name in wanted:
            try:
                found = importlib.import_module(module)
                if name and name != "*" and not hasattr(found, name):
                    importlib.import_module(f"{module}.{name}")  # submodule
            except ImportError as exc:
                yield f"{path.relative_to(SRC)}:{node.lineno}: {exc}"


def test_imports_resolve():
    paths = sorted((SRC / "repro").rglob("*.py"))
    assert len(paths) > 50
    assert [p for path in paths for p in _unresolved(path)] == []
