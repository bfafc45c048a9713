"""Package hygiene that a linter would otherwise check.

The package re-exports exactly the public names of its modules, every
public name has a reader outside its own tests, no module imports a name
it never uses (a deletion easily leaves one behind), no two modules
define the same top-level name, the momentum oracles in ``spectral``
share no stepping code with ``core``, and one function outside ``core``
walks its blocks.  The test run's header names the
BLAS kernel, whose rounding the golden bits follow.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import conftest
import pytest
from test_readme import README, python_blocks

import ladderwalk as lw
from ladderwalk import core, sectors, spectral

PACKAGE = Path(lw.__file__).resolve().parent


def test_package_reexports_exactly_the_module_names():
    exported = {name for name in vars(lw)
                if not name.startswith("_")
                and not isinstance(getattr(lw, name), type(lw))}
    modules = (core, sectors, spectral)
    assert exported == {name for module in modules for name in module.__all__}


def _public_names(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


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
    used |= _public_names(tree)
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


def _read_names(source: str) -> set[str]:
    """The names and attributes that code reads; a ``def``, a ``class`` and
    an ``__all__`` entry only define or list theirs."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


# a backticked name, optionally qualified and called: `run_sweep`, `lw.Angle`,
# `sweep_summary(alpha_grid, beta_grid, gamma_y)`
_README_NAME = re.compile(r"`(?:\w+\.)*(\w+)(?:\([^`]*\))?`")


def _unread_public_names(package: Path, readers: list[Path], readme: str,
                         readme_code: list[str]) -> list[str]:
    """Public names of ``package`` that no code of it or of ``readers``
    reads, nor ``readme_code``, and that ``readme`` does not name as a
    backticked name."""
    public = set().union(*(_public_names(ast.parse(path.read_text(encoding="utf-8")))
                           for path in package.glob("*.py")))
    read = set().union(*(_read_names(path.read_text(encoding="utf-8"))
                         for folder in (package, *readers) for path in folder.glob("*.py")))
    read |= set().union(*map(_read_names, readme_code))
    read |= set(_README_NAME.findall(readme))
    return sorted(public - read)


def test_every_public_name_has_a_reader_besides_the_tests():
    """A public name that only tests read is a deletion candidate: remove it
    and move the property its tests checked onto the path that remains."""
    readme = README.read_text(encoding="utf-8")
    readme_code = [source for _line, source in python_blocks()]
    assert _unread_public_names(PACKAGE, [README.parent / "perfbench"], readme,
                                readme_code) == []


def test_unread_name_scan_finds_one(tmp_path):
    (tmp_path / "m.py").write_text("__all__ = ['f', 'g', 'h', 'k']\n"
                                   "def f(): pass\ndef g(): return f()\n"
                                   "def h(): pass\ndef k(): pass\n")
    assert _unread_public_names(tmp_path, [], "Call `h(x)`.", ["m.k()"]) == ["g"]


def _defined_names(tree: ast.Module) -> set[str]:
    """The names that a module's top-level statements define, its
    functions, classes and assigned names, ``__all__`` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names - {"__all__"}


def _shared_names(sources: dict[str, str]) -> list[str]:
    """Each name that two or more of the modules ``sources`` (name ->
    source) define, with those modules."""
    modules = {}
    for module, source in sources.items():
        for name in _defined_names(ast.parse(source)):
            modules.setdefault(name, []).append(module)
    return sorted(f"{name} ({', '.join(found)})" for name, found in modules.items()
                  if len(found) > 1)


def test_no_name_is_defined_in_two_modules():
    """One name per helper: two modules' helpers of one name read as one,
    and a test or a tracer that names one may mean the other."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _shared_names(sources) == []


def test_shared_name_scan_finds_one():
    sources = {"a.py": "__all__ = ['f']\ndef f(): pass\nX = 1\n",
               "b.py": "__all__ = []\nclass f: pass\nY: int = 2\nZ, W = X, 2\nY.v = 3\n",
               "c.py": "from a import X\nimport f\ndef g():\n    X = 1\n"}
    assert _shared_names(sources) == ["f (a.py, b.py)"]


def test_blas_header_reads_unknown_without_the_symbols(monkeypatch):
    monkeypatch.setattr(conftest, "_OPENBLAS_SYMBOLS", [("no_corename", "no_config")])
    assert conftest._openblas() == "unknown"


# core's stepping: the walk itself, its stages and coins, the point-mass
# constructors and the protocol specs
_STEPPING = {"evolve", "_steps", "_state_blocks", "_stages", "_coin", "_ladder_unitary",
             "Conventional", "SplitStep", "Ladder", "ProtocolSpec"}


def _stepping_imports(tree: ast.Module) -> list[str]:
    """Names of ``core``'s stepping that a package module imports, from
    ``core`` or from the package, and ``core`` itself, whose every name
    would then be in reach."""
    found = []
    for node in ast.walk(tree):
        # node.module is None only in a relative "from . import"
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ladderwalk")):
            if (node.module or "").removeprefix("ladderwalk").lstrip(".") in ("", "core"):
                found += [alias.name for alias in node.names
                          if alias.name in _STEPPING | {"core"}
                          or alias.name.startswith("localized_")]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "ladderwalk.core"]
    return sorted(found)


def test_spectral_imports_no_stepping_code():
    """``evolve_spectral`` and ``cesaro_rho`` are oracles for the walk: they
    run no walk of their own."""
    tree = ast.parse((PACKAGE / "spectral.py").read_text(encoding="utf-8"))
    assert _stepping_imports(tree) == []


def test_stepping_import_scan_finds_one():
    tree = ast.parse("from .core import CoinSpinor, evolve\nfrom . import core\n"
                     "from ladderwalk.core import localized_walker\nfrom .sectors import Angle\n"
                     "from . import Ladder\nimport ladderwalk.core\n")
    assert _stepping_imports(tree) == ["Ladder", "core", "evolve", "ladderwalk.core",
                                       "localized_walker"]


def _block_walkers(sources: dict[str, str]) -> list[str]:
    """Each function of the modules ``sources`` (name -> source) that
    iterates ``_state_blocks``, in a loop or a comprehension, as
    ``module:function``."""
    found = []
    for module, source in sources.items():
        for function in ast.walk(ast.parse(source)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loops = [node.iter for node in ast.walk(function)
                     if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))]
            if any(isinstance(loop, ast.Call) and (
                    getattr(loop.func, "id", None) == "_state_blocks"
                    or getattr(loop.func, "attr", None) == "_state_blocks") for loop in loops):
                found.append(f"{module}:{function.name}")
    return sorted(found)


def test_one_function_outside_core_walks_the_blocks():
    """The walk commands share one blocked pass, ``cli._walk``: its
    per-site rows, |psi|^2 workspaces and step-sum check are said once."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"}
    assert len(_block_walkers(sources)) <= 1, _block_walkers(sources)


def test_block_walker_scan_finds_one():
    sources = {"a.py": "def f(s):\n    for b in _state_blocks(s):\n        pass\n"
                       "def g(s):\n    return _state_blocks(s)\n",
               "b.py": "def h(s):\n    return [b for b in core._state_blocks(s)]\n"
                       "def k(s):\n    for b in blocks(s):\n        pass\n"}
    assert _block_walkers(sources) == ["a.py:f", "b.py:h"]
