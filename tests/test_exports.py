"""Package surface: every exported name resolves, and the tests pin BLAS threads."""

from __future__ import annotations

import importlib
import os
import pkgutil

import pytest

import conftest
import mdesign

MODULES = sorted(f"mdesign.{info.name}" for info in pkgutil.iter_modules(mdesign.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_blas_threads_pinned_before_numpy_loaded():
    # OpenBLAS reads its thread count once, when numpy is first imported
    assert not conftest.NUMPY_LOADED_BEFORE_PIN
    assert "OPENBLAS_NUM_THREADS" in os.environ
