"""Every module-level import in the package is used.

Each module of ``src/setrep`` but ``__init__.py`` (which imports to
re-export) is parsed with :mod:`ast`.  A name bound by an import in the
module's top-level statements must be read somewhere in the module, or be
listed in its ``__all__``; ``from __future__`` imports bind no name."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "setrep"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names that the module's top-level imports bind, each with the
    line of its import."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, and the strings of its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)
                     and isinstance(c.value, str)}
    return used


def test_modules_are_found():
    assert "oracle.py" in MODULES and "theorems.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{module}: unused imports {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from operator import itemgetter\nimport os.path\n"
                     "from typing import Callable\nx: Callable = 1\n")
    assert set(imported_names(tree)) - used_names(tree) == {"itemgetter", "os"}
