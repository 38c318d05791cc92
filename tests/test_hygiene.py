"""Static checks on the library sources: no rational arithmetic, and no
imported name left unused.  ``__init__.py`` is exempt from the second
check, since its imports are re-exports."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chowforms"
MODULES = sorted(SRC.glob("*.py"))


def test_sources_found():
    assert len(MODULES) > 5


def _imports(tree):
    """(module, bound name) for every import statement but __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_fractions_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [m for m, _ in _imports(tree)
            if m.split(".")[0] == "fractions"] == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for _, name in _imports(tree) if name not in used] == []
