"""Package hygiene that a linter would otherwise check.

The package re-exports exactly the public names of its modules, and no
module imports a name it never uses (a deletion easily leaves one
behind).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ladderwalk as lw
from ladderwalk import core, observables, sectors, spectral

PACKAGE = Path(lw.__file__).resolve().parent


def test_package_reexports_exactly_the_module_names():
    exported = {name for name in vars(lw)
                if not name.startswith("_")
                and not isinstance(getattr(lw, name), type(lw))}
    modules = (core, observables, sectors, spectral)
    assert exported == {name for module in modules for name in module.__all__}


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by a module's imports that nothing in it reads and its
    ``__all__`` does not list."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


# __init__.py imports only to re-export; the test above checks those names.
@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_unused_import_scan_finds_one():
    tree = ast.parse("from dataclasses import dataclass\nimport math\n"
                     "__all__ = ['f']\nfrom x import f\nmath.pi\n")
    assert _unused_imports(tree) == ["dataclass (line 1)"]
