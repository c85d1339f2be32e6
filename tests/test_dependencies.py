"""Packaging: every module the package imports is the standard library, itself or declared."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdesign"


def declared_dependencies() -> set[str]:
    """Import names of ``[project].dependencies``: ``"numpy>=1.24"`` declares ``numpy``."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in requirements}


def imported_modules(source: str) -> set[str]:
    """Top-level names of every absolute import in ``source``, nested ones included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def undeclared_imports(sources: dict[str, str], declared: set[str]) -> dict[str, set[str]]:
    """Per file, the imported names that are not the standard library, ``mdesign`` or declared."""
    allowed = set(sys.stdlib_module_names) | {"mdesign"} | declared
    found = {name: imported_modules(text) - allowed for name, text in sources.items()}
    return {name: extra for name, extra in found.items() if extra}


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_import_is_a_declared_dependency():
    assert undeclared_imports(package_sources(), declared_dependencies()) == {}


def test_an_undeclared_import_is_reported():
    declared = declared_dependencies()
    assert "scipy" in declared
    found = undeclared_imports(package_sources(), declared - {"scipy"})
    assert found == {"harness.py": {"scipy"}}
