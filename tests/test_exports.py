"""Package surface: every exported name resolves, every import is used, layers load alone,
BLAS threads are pinned."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
import mdesign

MODULES = sorted(f"mdesign.{info.name}" for info in pkgutil.iter_modules(mdesign.__path__))
SRC = Path(__file__).resolve().parent.parent / "src"
RUN_PATH = ("engine", "graph", "planner", "similarity", "space", "store")


def _loaded(*layers: str) -> list[str]:
    return sorted(["mdesign", *(f"mdesign.{layer}" for layer in layers)])


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import mdesign", ["mdesign"]),
        ("import mdesign.store", ["mdesign", "mdesign.space", "mdesign.store"]),
        ("import mdesign.engine", _loaded(*RUN_PATH)),
        ("import mdesign.harness", _loaded(*RUN_PATH, "harness")),
        ("import mdesign.cli", _loaded(*RUN_PATH, "harness", "cli")),
    ],
)
def test_a_layer_imports_only_the_layers_beneath_it(statement, loaded):
    """The package root re-exports nothing, so the store loads without the engine; no layer
    loads scipy, which only ``harness.consistency_stats`` imports, when it is called; and no
    layer loads orjson, which the package does not use."""
    probe = "sorted(m for m in sys.modules if m.partition('.')[0] in ('mdesign', 'scipy', 'orjson'))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys; {statement}; print(json.dumps({probe}))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert json.loads(proc.stdout) == loaded


def test_blas_threads_pinned_before_numpy_loaded():
    # OpenBLAS reads its thread count once, when numpy is first imported
    assert not conftest.NUMPY_LOADED_BEFORE_PIN
    assert "OPENBLAS_NUM_THREADS" in os.environ


def test_every_module_import_is_referenced_or_marked():
    """A module-level import in the package is used, or its line says ``# noqa: F401`` (a hook)."""
    unused = []
    for path in sorted(Path(mdesign.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert unused == []
