"""The package imports nothing outside the standard library and itself, and
exports exactly its public names."""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "freqmine"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_roots(tree: ast.Module) -> set[str]:
    """Top-level names of every absolute import; relative ones are the package."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("freqmine" if node.level else node.module.partition(".")[0])
    return roots


def test_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    foreign = _imported_roots(tree) - set(sys.stdlib_module_names) - {"freqmine"}
    assert not foreign, f"{module.name} imports {sorted(foreign)}"


def _isort_key(name: str) -> tuple[int, str]:
    """Constants, then classes, then the rest, each in code-point order."""
    kind = 0 if name.isupper() else 1 if name[0].isupper() else 2
    return kind, name


def test_all_lists_exactly_the_public_names_in_order():
    import freqmine

    exported = freqmine.__all__
    assert exported == sorted(set(exported), key=_isort_key)
    bound = {
        name
        for name, value in vars(freqmine).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(exported) == bound
    namespace: dict[str, object] = {}
    exec("from freqmine import *", namespace)
    assert {name: namespace[name] for name in exported} == {
        name: getattr(freqmine, name) for name in exported
    }
